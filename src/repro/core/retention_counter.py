"""Per-line retention counters (RC).

The paper attaches a 4-bit counter per LR line and a 2-bit counter per HR
line (borrowing the mechanism from Jog et al.'s Cache Revive).  A counter
tracks time since the line's last write in coarse ticks; when it nears
saturation the line is either refreshed (LR, through the LR->HR buffer's
read/write path) or invalidated / written back (HR).

The paper quotes a 16 kHz tick for the LR counters; that figure is hard to
reconcile with microsecond-scale LR retention, so — as with the rest of the
illegible numerics — we keep the *structure* (4-bit LR / 2-bit HR counters)
and derive the tick from the retention target: the counter must saturate
exactly at retention expiry, so ``tick = retention / 2**bits``.  Refresh is
scheduled in the last tick before expiry ("postpone refresh of data blocks
to the last cycles of retention period").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RetentionCounterSpec:
    """Geometry and timing of one retention-counter array.

    Attributes
    ----------
    bits:
        Counter width (4 for LR, 2 for HR in the paper).
    retention_s:
        Retention time the counter must cover.
    """

    bits: int
    retention_s: float

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ConfigurationError("retention counter needs at least one bit")
        if self.retention_s <= 0:
            raise ConfigurationError("retention time must be positive")

    @property
    def states(self) -> int:
        """Number of counter states (2**bits)."""
        return 1 << self.bits

    @property
    def tick_s(self) -> float:
        """Counter tick period: retention / states."""
        return self.retention_s / self.states

    @property
    def refresh_age_s(self) -> float:
        """Age at which refresh must happen.

        The paper postpones refresh "to the last cycles of the retention
        period"; we open the window two ticks before expiry so a sweep that
        runs once per tick can never skip past it.  Degenerate 1-bit
        counters fall back to half the retention time.
        """
        window_start = self.retention_s - 2 * self.tick_s
        if window_start <= 0:
            return self.retention_s / 2
        return window_start

    def as_dict(self) -> dict:
        """JSON-safe description (embedded in trace metadata).

        The tracing layer stamps each retention-counter spec into the
        emitted trace's ``otherData.metadata`` so a trace is
        self-describing: refresh/expiry event cadence can be interpreted
        without consulting the configuration that produced the run.
        """
        return {
            "bits": self.bits,
            "retention_s": self.retention_s,
            "tick_s": self.tick_s,
            "states": self.states,
            "refresh_age_s": self.refresh_age_s,
        }

    def needs_refresh(self, age_s: float) -> bool:
        """Is this line inside its final retention tick?"""
        return self.refresh_age_s <= age_s < self.retention_s

    def expired(self, age_s: float) -> bool:
        """Has the line outlived its retention (data lost)?"""
        return age_s >= self.retention_s
