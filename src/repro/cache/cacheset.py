"""One cache set: ways + LRU recency.

A :class:`CacheSet` owns its :class:`~repro.cache.block.CacheBlock` ways and
the per-set LRU state.  It offers the minimal primitive operations
(`lookup`, `victim_way`, `install`, `invalidate_way`) that both the plain
set-associative array and the two-part architecture compose.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.block import CacheBlock
from repro.cache.replacement import LRUPolicy
from repro.errors import ConfigurationError


class CacheSet:
    """A single set of ``associativity`` ways."""

    __slots__ = ("blocks", "policy", "_tag_to_way", "set_writes", "frame_writes")

    def __init__(self, associativity: int) -> None:
        if associativity <= 0:
            raise ConfigurationError("associativity must be positive")
        self.blocks: List[CacheBlock] = [CacheBlock() for _ in range(associativity)]
        self.policy = LRUPolicy(associativity)
        self._tag_to_way: Dict[int, int] = {}
        #: total writes observed by this set (inter-set COV input, Fig. 3)
        self.set_writes: int = 0
        #: cumulative data-array writes per physical way, across residencies
        #: (cell wear for endurance/lifetime analysis — never reset by fills)
        self.frame_writes: List[int] = [0] * associativity

    @property
    def associativity(self) -> int:
        """Number of ways."""
        return len(self.blocks)

    def lookup(self, tag: int) -> Optional[int]:
        """Return the way holding ``tag``, or None on miss (no side effects).

        Backed by the tag->way dict, which :meth:`install` and
        :meth:`invalidate_way` keep coherent — blocks are never retagged or
        invalidated behind the set's back (``test_perf_equivalence`` checks
        this against :meth:`lookup_linear`).
        """
        return self._tag_to_way.get(tag)

    def lookup_linear(self, tag: int) -> Optional[int]:
        """Reference linear way scan, bypassing the tag->way dict.

        Kept only as the oracle for the dict-vs-scan equivalence test; the
        hot path uses :meth:`lookup`.
        """
        for way, block in enumerate(self.blocks):
            if block.valid and block.tag == tag:
                return way
        return None

    def touch(self, way: int) -> None:
        """Inform the LRU policy of a hit on ``way``."""
        self.policy.on_hit(way)

    def victim_way(self) -> int:
        """Pick the way to evict (invalid ways first).

        Scans the ways directly (same first-invalid-way order as
        :meth:`LRUPolicy.victim`) instead of paying a lambda call per way.
        """
        for way, block in enumerate(self.blocks):
            if not block.valid:
                return way
        return self.policy.full_victim()

    def install(self, way: int, tag: int, now: float, dirty: bool = False) -> None:
        """Fill ``way`` with a new line, updating the tag map and policy."""
        block = self.blocks[way]
        if block.valid:
            self._tag_to_way.pop(block.tag, None)
        block.fill(tag, now, dirty=dirty)
        self._tag_to_way[tag] = way
        self.policy.on_fill(way)
        self.frame_writes[way] += 1  # a fill writes every cell of the frame
        if dirty:
            self.set_writes += 1

    def invalidate_way(self, way: int) -> None:
        """Drop the line in ``way`` (retention expiry, external invalidate)."""
        block = self.blocks[way]
        if block.valid:
            self._tag_to_way.pop(block.tag, None)
        block.reset()

    def record_write(self, way: int, now: float, saturate_at: int = 0) -> None:
        """Account a write hit on ``way``."""
        self.blocks[way].record_write(now, saturate_at=saturate_at)
        self.set_writes += 1
        self.frame_writes[way] += 1

    def occupancy(self) -> int:
        """Number of valid ways."""
        return sum(1 for b in self.blocks if b.valid)
