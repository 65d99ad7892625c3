"""Magnetic Tunnel Junction (MTJ) physics.

The retention time of an MTJ free layer follows the Neel-Arrhenius law::

    t_retention = tau0 * exp(Delta)

where ``tau0`` is the thermal attempt period (~1 ns) and ``Delta = E/kT`` is
the thermal stability factor.  Inverting gives ``Delta = ln(t/tau0)``: a
10-year cell needs Delta ~ 40, a 40 ms cell ~ 17.5 and a 40 us cell ~ 10.6.

Write switching is modeled in the thermally-activated regime (pulse widths of
a few ns and up), where the required switching current for a pulse of width
``tp`` is::

    Ic(tp) = Ic0 * (1 - ln(tp / tau0) / Delta)

(Smullen et al., HPCA 2011).  Lower Delta therefore admits either a lower
current at fixed pulse width or a shorter pulse at fixed current; the cell
model picks a balanced operating point on that curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import DeviceModelError
from repro.units import NS, YEAR

#: Thermal attempt period (seconds). 1 ns is the standard literature value.
DEFAULT_TAU0 = 1.0 * NS

#: Stability factor conventionally quoted for 10-year cell retention.
TEN_YEAR_DELTA = math.log(10 * YEAR / DEFAULT_TAU0)


def stability_for_retention_time(retention_s: float, tau0: float = DEFAULT_TAU0) -> float:
    """Thermal stability factor Delta needed to retain data ``retention_s``.

    ``Delta = ln(t / tau0)``; raises :class:`DeviceModelError` when the
    requested retention is not longer than the attempt period (the model is
    meaningless there).
    """
    if tau0 <= 0:
        raise DeviceModelError(f"tau0 must be positive, got {tau0}")
    if retention_s <= tau0:
        raise DeviceModelError(
            f"retention time {retention_s}s must exceed attempt period {tau0}s"
        )
    return math.log(retention_s / tau0)


def retention_time_for_stability(delta: float, tau0: float = DEFAULT_TAU0) -> float:
    """Retention time (seconds) of a cell with stability factor ``delta``."""
    if tau0 <= 0:
        raise DeviceModelError(f"tau0 must be positive, got {tau0}")
    if delta <= 0:
        raise DeviceModelError(f"stability factor must be positive, got {delta}")
    return tau0 * math.exp(delta)


@dataclass(frozen=True)
class MTJParameters:
    """Junction-level parameters of one MTJ device.

    Attributes
    ----------
    delta:
        Thermal stability factor E/kT.
    ic0:
        Zero-temperature critical switching current (amperes). The default
        (~30 uA) is representative of scaled 40 nm MTJs.
    tau0:
        Thermal attempt period (seconds).
    resistance_parallel:
        Junction resistance in the parallel (logic ``0``) state, ohms.
    tmr:
        Tunnel magneto-resistance ratio; the anti-parallel resistance is
        ``resistance_parallel * (1 + tmr)``.
    """

    delta: float
    ic0: float = 30e-6
    tau0: float = DEFAULT_TAU0
    resistance_parallel: float = 2500.0
    tmr: float = 1.0

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise DeviceModelError(f"delta must be positive, got {self.delta}")
        if self.ic0 <= 0:
            raise DeviceModelError(f"ic0 must be positive, got {self.ic0}")
        if self.tau0 <= 0:
            raise DeviceModelError(f"tau0 must be positive, got {self.tau0}")
        if self.resistance_parallel <= 0:
            raise DeviceModelError("parallel resistance must be positive")
        if self.tmr <= 0:
            raise DeviceModelError(f"TMR must be positive, got {self.tmr}")

    @classmethod
    def for_retention(cls, retention_s: float, **kwargs: float) -> "MTJParameters":
        """Build parameters for a junction that retains data ``retention_s``."""
        tau0 = float(kwargs.pop("tau0", DEFAULT_TAU0))
        delta = stability_for_retention_time(retention_s, tau0=tau0)
        return cls(delta=delta, tau0=tau0, **kwargs)

    @property
    def retention_time(self) -> float:
        """Nominal retention time (seconds) of this junction."""
        return retention_time_for_stability(self.delta, tau0=self.tau0)

    @property
    def resistance_antiparallel(self) -> float:
        """Junction resistance in the anti-parallel (logic ``1``) state."""
        return self.resistance_parallel * (1.0 + self.tmr)

    def switching_current(self, pulse_width_s: float) -> float:
        """Current (A) needed to switch within a pulse of ``pulse_width_s``.

        Thermally-activated regime: ``Ic(tp) = Ic0 (1 - ln(tp/tau0)/Delta)``.
        Valid for ``tau0 < tp < retention_time``; outside that window the
        formula would go non-positive or ask the junction to self-switch, so
        we raise instead of returning garbage.
        """
        if pulse_width_s <= self.tau0:
            raise DeviceModelError(
                f"pulse width {pulse_width_s}s must exceed tau0 {self.tau0}s "
                "(precessional switching is outside this model)"
            )
        factor = 1.0 - math.log(pulse_width_s / self.tau0) / self.delta
        if factor <= 0:
            raise DeviceModelError(
                f"pulse width {pulse_width_s}s exceeds the thermal switching "
                f"window of a Delta={self.delta:.1f} junction"
            )
        return self.ic0 * factor
