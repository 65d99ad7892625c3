"""STT-RAM data array model.

Combines the device-level energies and latencies of a retention level
(:class:`repro.sttram.retention.RetentionLevel`) with geometry at a technology
node and the H-tree wire overheads, exposing the same interface as
:class:`SRAMArrayModel` so the cache roll-up can mix the two.

Leakage: MTJ cells do not leak; only the CMOS periphery does.  We charge a
fixed fraction of what an equally sized SRAM array would leak, which matches
the paper's observation that STT leakage is "negligible" but non-zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from repro.areapower.technology import TechnologyNode, TECH_40NM
from repro.areapower.wire import WireModel
from repro.errors import ConfigurationError
from repro.sttram.cell import STT_CELL_AREA_F2
from repro.sttram.ewt import EWTModel
from repro.sttram.retention import RetentionLevel
from repro.units import NS

#: Periphery leakage as a fraction of same-capacity SRAM leakage.  Chosen so
#: the leakage gap between SRAM and STT matches the paper's total-power
#: results (see EXPERIMENTS.md calibration notes).
PERIPHERY_LEAKAGE_FRACTION = 0.16


@dataclass(frozen=True)
class STTDataArrayModel:
    """Analytical model of one STT-RAM data array.

    Attributes
    ----------
    capacity_bytes:
        Total storage.
    line_size_bytes:
        Bits moved per access = ``line_size_bytes * 8``.
    level:
        Retention operating point (device write/read energy & latency).
    tech:
        Technology node (periphery + cell footprint scale).
    wire:
        Global wire model.
    array_efficiency:
        Cell-area fraction of the total footprint.
    base_latency:
        Decoder + sense latency floor (s).
    """

    capacity_bytes: int
    line_size_bytes: int
    level: RetentionLevel
    tech: TechnologyNode = TECH_40NM
    wire: WireModel = field(default_factory=WireModel)
    array_efficiency: float = 0.7
    base_latency: float = 0.5 * NS
    #: optional early-write-termination circuitry (scales device write energy)
    ewt: Optional[EWTModel] = None

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError("capacity must be positive")
        if self.line_size_bytes <= 0:
            raise ConfigurationError("line size must be positive")
        if not 0 < self.array_efficiency <= 1:
            raise ConfigurationError("array efficiency must be in (0, 1]")
        if self.base_latency < 0:
            raise ConfigurationError("base latency must be non-negative")

    # --- geometry --------------------------------------------------------

    @cached_property
    def area(self) -> float:
        """Array footprint (m^2); the 1T1J cell is ~4x denser than 6T SRAM."""
        cells = self.capacity_bytes * 8
        cell_area = STT_CELL_AREA_F2 * self.tech.feature_size**2
        return cells * cell_area / self.array_efficiency

    @cached_property
    def access_bits(self) -> int:
        """Bits moved per line access."""
        return self.line_size_bytes * 8

    # --- energy --------------------------------------------------------------

    @cached_property
    def read_energy(self) -> float:
        """Dynamic energy (J) per line read, device + wires."""
        device = self.level.read_energy_per_line(self.line_size_bytes)
        sense_overhead = self.tech.sram_bit_read_energy * self.access_bits * 0.5
        return device + sense_overhead + self.wire.energy(self.area, self.access_bits)

    @cached_property
    def write_energy(self) -> float:
        """Dynamic energy (J) per line write, dominated by the MTJ pulses.

        With EWT, only the flipped-bit groups pay the MTJ pulse energy.
        """
        device = self.level.write_energy_per_line(self.line_size_bytes)
        if self.ewt is not None:
            device *= self.ewt.write_energy_factor
        driver_overhead = self.tech.sram_bit_write_energy * self.access_bits * 0.5
        return device + driver_overhead + self.wire.energy(self.area, self.access_bits)

    # --- leakage --------------------------------------------------------------

    @cached_property
    def leakage_power(self) -> float:
        """Periphery-only leakage (W); MTJ cells themselves do not leak."""
        sram_equivalent = self.capacity_bytes * self.tech.sram_leakage_per_byte()
        return sram_equivalent * PERIPHERY_LEAKAGE_FRACTION

    # --- latency --------------------------------------------------------------

    @cached_property
    def read_latency(self) -> float:
        """Line read latency (s)."""
        return self.base_latency + self.level.read_latency + self.wire.delay(self.area)

    @cached_property
    def write_latency(self) -> float:
        """Line write latency (s), dominated by the MTJ write pulse."""
        return self.base_latency + self.level.write_latency + self.wire.delay(self.area)
