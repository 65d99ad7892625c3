"""Write-working-set (WWS) monitor.

The paper attaches a saturating write counter (WC) to every HR line and
migrates a line to the LR part once its counter reaches a threshold.  The
key empirical result (their Fig. 4) is that a threshold of **1** suffices:
a line that gets *re*written while dirty is part of the WWS, so the existing
modified bit doubles as the monitor and the logic costs nothing.

Semantics used here (and in the paper's energy discussion, which notes that
"single write traffic into HR" still pays HR write energy): the *first*
write to an HR-resident line is performed in HR and arms the counter; a
subsequent write that finds ``write_count >= threshold`` triggers migration
and is performed in LR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.cache.block import CacheBlock
from repro.errors import ConfigurationError


@dataclass
class MonitorStats:
    """WWS monitor decision counters."""

    writes_observed: int = 0
    migrations_triggered: int = 0

    @property
    def migration_rate(self) -> float:
        """Fraction of observed HR writes that triggered migration."""
        if not self.writes_observed:
            return 0.0
        return self.migrations_triggered / self.writes_observed

    def as_dict(self) -> Dict[str, float]:
        """JSON-safe rendering (campaign reports, counter reconciliation)."""
        return {
            "writes_observed": self.writes_observed,
            "migrations_triggered": self.migrations_triggered,
            "migration_rate": self.migration_rate,
        }


class WWSMonitor:
    """Decides when an HR-resident block joins the write working set."""

    def __init__(self, threshold: int = 1, counter_bits: int = 0) -> None:
        if threshold < 1:
            raise ConfigurationError("write threshold must be >= 1")
        if counter_bits == 0:
            # auto-size the counter to the threshold (TH1 fits the dirty bit)
            counter_bits = max(1, threshold.bit_length())
        if counter_bits < 1:
            raise ConfigurationError("counter needs at least one bit")
        max_count = (1 << counter_bits) - 1
        if threshold > max_count:
            raise ConfigurationError(
                f"threshold {threshold} does not fit in {counter_bits}-bit counter"
            )
        self.threshold = threshold
        self.counter_bits = counter_bits
        self.stats = MonitorStats()

    @property
    def saturation(self) -> int:
        """Saturating cap for per-block write counters."""
        return (1 << self.counter_bits) - 1

    def should_migrate(self, block: CacheBlock) -> bool:
        """Called on a write *hit* in HR: migrate this block to LR?

        The block's ``write_count`` reflects writes performed while resident
        (the fill that brought it in counts if it was a write-allocate).
        """
        self.stats.writes_observed += 1
        if block.write_count >= self.threshold:
            self.stats.migrations_triggered += 1
            return True
        return False
