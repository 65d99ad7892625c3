"""1T1J STT-RAM bit cell model.

A cell is one NMOS access transistor in series with one MTJ.  The model
derives, from the junction physics in :mod:`repro.sttram.mtj`:

* write pulse width and write current at the cell's operating point,
* write energy per bit (``I * V * tp`` plus peripheral overhead),
* read energy and latency (small sense current, short pulse),
* cell area in F^2 (feature-size-squared), the basis of the paper's
  "STT-RAM is ~4x denser than SRAM" claim.

Operating point selection: for a junction with stability ``Delta`` we write
with a pulse width that scales linearly with ``Delta`` relative to the
10-year anchor (10 ns at Delta ~ 40), then take the switching current from
the thermal-activation curve with a safety margin.  This reproduces the
qualitative Table 1 trend of the paper: lower retention -> shorter pulse and
lower current -> quadratically lower write energy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DeviceModelError
from repro.sttram.mtj import MTJParameters, TEN_YEAR_DELTA
from repro.units import NS

#: Write pulse width used at the 10-year retention anchor point.
ANCHOR_PULSE_WIDTH = 10.0 * NS

#: Margin applied on top of the critical switching current (write-error-rate
#: guard band).
WRITE_CURRENT_MARGIN = 1.2

#: STT-RAM 1T1J cell area in F^2. SRAM is ~125 F^2, giving the ~4x density
#: advantage the paper quotes.
STT_CELL_AREA_F2 = 31.0
SRAM_CELL_AREA_F2 = 125.0


@dataclass(frozen=True)
class STTCell:
    """One 1T1J STT-RAM bit cell at a given retention operating point.

    Attributes
    ----------
    mtj:
        Junction physics for the chosen retention level.
    supply_voltage:
        Write driver supply (volts).
    read_current:
        Sense current (amperes); must stay well under the switching current
        to avoid read disturbs.
    read_pulse_width:
        Sense duration (seconds).
    """

    mtj: MTJParameters
    supply_voltage: float = 1.1
    read_current: float = 12e-6
    read_pulse_width: float = 1.0 * NS

    def __post_init__(self) -> None:
        if self.supply_voltage <= 0:
            raise DeviceModelError("supply voltage must be positive")
        if self.read_current <= 0:
            raise DeviceModelError("read current must be positive")
        if self.read_pulse_width <= 0:
            raise DeviceModelError("read pulse width must be positive")

    # --- write path ---------------------------------------------------

    @property
    def write_pulse_width(self) -> float:
        """Write pulse width (s), scaled from the 10-year anchor by Delta.

        ``tp = 10 ns * Delta / Delta_10yr``, floored at 2x tau0 so the
        thermal-activation current formula stays in its validity window.
        """
        scaled = ANCHOR_PULSE_WIDTH * self.mtj.delta / TEN_YEAR_DELTA
        return max(scaled, 2.0 * self.mtj.tau0)

    @property
    def write_current(self) -> float:
        """Per-bit write current (A) at the operating pulse width."""
        critical = self.mtj.switching_current(self.write_pulse_width)
        return critical * WRITE_CURRENT_MARGIN

    @property
    def write_energy_per_bit(self) -> float:
        """Energy (J) to write one bit: ``I * V * tp``."""
        return self.write_current * self.supply_voltage * self.write_pulse_width

    # --- read path ------------------------------------------------------

    @property
    def read_energy_per_bit(self) -> float:
        """Energy (J) to sense one bit.

        Uses the average junction resistance to convert the sense current to
        a voltage drop; the sense amp overhead lives in the array model.
        """
        r_avg = 0.5 * (self.mtj.resistance_parallel + self.mtj.resistance_antiparallel)
        v_sense = self.read_current * r_avg
        return self.read_current * v_sense * self.read_pulse_width

    @property
    def read_latency(self) -> float:
        """Cell-level read latency (s); array wires/decoders add more."""
        return self.read_pulse_width

    # --- geometry ---------------------------------------------------------

    @staticmethod
    def area(feature_size_m: float) -> float:
        """Cell area (m^2) at technology feature size ``feature_size_m``."""
        if feature_size_m <= 0:
            raise DeviceModelError("feature size must be positive")
        return STT_CELL_AREA_F2 * feature_size_m * feature_size_m
