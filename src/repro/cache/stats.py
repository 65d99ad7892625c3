"""Cache statistics counters.

One :class:`CacheStats` instance per array; the simulator and the analysis
modules read these rather than re-deriving counts from traces.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    """Counter bundle for one cache array."""

    reads: int = 0
    writes: int = 0
    read_hits: int = 0
    write_hits: int = 0
    fills: int = 0
    evictions_clean: int = 0
    evictions_dirty: int = 0
    invalidations: int = 0

    # --- derived ----------------------------------------------------------

    @property
    def accesses(self) -> int:
        """Total demand accesses."""
        return self.reads + self.writes

    @property
    def hits(self) -> int:
        """Total demand hits."""
        return self.read_hits + self.write_hits

    @property
    def hit_rate(self) -> float:
        """Demand hit rate; 0.0 when no accesses were made."""
        return self.hits / self.accesses if self.accesses else 0.0
