"""Behavioural set-associative cache array.

:class:`SetAssociativeCache` is the workhorse of every cache level in the
reproduction.  ``access`` performs a demand access with allocation, returning
an :class:`AccessOutcome` describing what happened (hit/miss, any eviction
and whether it was dirty) so callers can charge energy/latency and forward
write-backs without the array knowing about the rest of the hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Tuple

from repro.cache.address import AddressMapper
from repro.cache.block import CacheBlock
from repro.cache.cacheset import CacheSet
from repro.cache.stats import CacheStats
from repro.errors import GeometryError
from repro.tracing import NULL_TRACER, TraceCollector


@dataclass(frozen=True)
class AccessOutcome:
    """Result of one demand access.

    Attributes
    ----------
    hit:
        True when the line was present.
    way / set_index:
        Location of the line after the access.
    filled:
        True when a new line was installed (miss with allocation).
    evicted_address:
        Line-aligned address of any evicted line, else None.
    evicted_dirty:
        True when the evicted line carried dirty data (needs write-back).
    """

    hit: bool
    set_index: int
    way: int
    filled: bool = False
    evicted_address: Optional[int] = None
    evicted_dirty: bool = False


class SetAssociativeCache:
    """A set-associative, write-back, LRU behavioural cache.

    Misses allocate unless the caller passes ``allocate=False`` (the GPU
    L1's write-no-allocate global writes and MSHR-deferred fills).
    """

    def __init__(
        self,
        capacity_bytes: int,
        associativity: int,
        line_size: int,
        name: str = "cache",
        write_counter_saturation: int = 0,
        tracer: Optional[TraceCollector] = None,
    ) -> None:
        if capacity_bytes <= 0 or associativity <= 0 or line_size <= 0:
            raise GeometryError("capacity, associativity and line size must be positive")
        if capacity_bytes % (associativity * line_size) != 0:
            raise GeometryError(
                f"{capacity_bytes}B does not factor into {associativity} ways "
                f"of {line_size}B lines"
            )
        num_sets = capacity_bytes // (associativity * line_size)
        self._num_sets = num_sets
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.associativity = associativity
        self.line_size = line_size
        self.write_counter_saturation = write_counter_saturation
        self.mapper = AddressMapper(line_size=line_size, num_sets=num_sets)
        #: the one shared address decomposition every path goes through
        #: (probe/access/fill/invalidate/evict/extract/block_at) — bound once
        #: so a geometry change can never desynchronize them
        self._split = self.mapper.split
        self.stats = CacheStats()
        # AccessOutcome is frozen, so identical outcomes are shareable:
        # pre-build the plain-hit and unallocated-miss records per location
        # instead of allocating a fresh object per request.
        self._hit_outcomes: dict = {}
        self._miss_outcomes: dict = {}
        #: optional trace collector (``cache.<name>.*`` counters)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: replacement-victim count per set (eviction-pressure profile)
        self.set_evictions: List[int] = [0] * num_sets

    @cached_property
    def sets(self) -> List[CacheSet]:
        """The per-set way objects, built on first use.

        Arrays whose state lives elsewhere (the ``soa`` engine's L1s keep
        flat per-SM vectors) never pay for them.
        """
        return [CacheSet(self.associativity) for _ in range(self._num_sets)]

    # --- geometry ---------------------------------------------------------

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self._num_sets

    @property
    def num_lines(self) -> int:
        """Total number of lines."""
        return self.num_sets * self.associativity

    # --- demand path --------------------------------------------------------

    def probe(self, address: int) -> bool:
        """Presence check without side effects (no stats, no LRU update)."""
        tag, index = self._split(address)
        return self.sets[index].lookup(tag) is not None

    def _hit_outcome(self, index: int, way: int) -> AccessOutcome:
        """The shared plain-hit outcome for ``(index, way)``."""
        key = index * self.associativity + way
        outcome = self._hit_outcomes.get(key)
        if outcome is None:
            outcome = AccessOutcome(hit=True, set_index=index, way=way)
            self._hit_outcomes[key] = outcome
        return outcome

    def access(
        self, address: int, is_write: bool, now: float = 0.0, allocate: bool = True
    ) -> AccessOutcome:
        """Perform a demand access with allocation on miss.

        Passing ``allocate=False`` records the demand access but leaves the
        miss unfilled: GPU L1 global writes are write-no-allocate, and
        callers with MSHRs install the line later via :meth:`fill` when
        the fetch completes.
        """
        tag, index = self._split(address)
        cache_set = self.sets[index]
        way = cache_set.lookup(tag)
        stats = self.stats

        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1

        if way is not None:
            if is_write:
                stats.write_hits += 1
                cache_set.record_write(
                    way, now, saturate_at=self.write_counter_saturation
                )
            else:
                stats.read_hits += 1
            cache_set.touch(way)
            return self._hit_outcome(index, way)

        # miss
        if not allocate:
            outcome = self._miss_outcomes.get(index)
            if outcome is None:
                outcome = AccessOutcome(hit=False, set_index=index, way=-1)
                self._miss_outcomes[index] = outcome
            return outcome
        return self._fill(cache_set, index, tag, now, dirty=is_write)

    def _slow_access(
        self, address: int, is_write: bool, now: float = 0.0, allocate: bool = True
    ) -> AccessOutcome:
        """Reference implementation of :meth:`access` via linear way scans.

        Pre-optimization semantics, kept ONLY for the dict-vs-scan
        equivalence test (``tests/test_perf_equivalence.py``); allocates a
        fresh outcome per call and looks the tag up by scanning ways.
        """
        tag, index = self.mapper.split(address)
        cache_set = self.sets[index]
        way = cache_set.lookup_linear(tag)

        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1

        if way is not None:
            if is_write:
                self.stats.write_hits += 1
                cache_set.record_write(
                    way, now, saturate_at=self.write_counter_saturation
                )
            else:
                self.stats.read_hits += 1
            cache_set.touch(way)
            return AccessOutcome(hit=True, set_index=index, way=way)

        if not allocate:
            return AccessOutcome(hit=False, set_index=index, way=-1)
        return self._fill(cache_set, index, tag, now, dirty=is_write)

    def fill(self, address: int, now: float = 0.0, dirty: bool = False) -> AccessOutcome:
        """Install a line without a demand access (e.g. migration target).

        If the line is already present it is refreshed in place (policy touch,
        dirty bit OR-ed in) rather than duplicated.
        """
        tag, index = self._split(address)
        cache_set = self.sets[index]
        way = cache_set.lookup(tag)
        if way is not None:
            if dirty:
                cache_set.record_write(
                    way, now, saturate_at=self.write_counter_saturation
                )
            cache_set.touch(way)
            return self._hit_outcome(index, way)
        return self._fill(cache_set, index, tag, now, dirty=dirty)

    def _fill(
        self, cache_set: CacheSet, index: int, tag: int, now: float, dirty: bool
    ) -> AccessOutcome:
        way = cache_set.victim_way()
        victim = cache_set.blocks[way]
        evicted_address: Optional[int] = None
        evicted_dirty = False
        if victim.valid:
            evicted_address = self.mapper.rebuild(victim.tag, index)
            evicted_dirty = victim.dirty
            self.set_evictions[index] += 1
            if evicted_dirty:
                self.stats.evictions_dirty += 1
            else:
                self.stats.evictions_clean += 1
            if self.tracer.enabled:
                self.tracer.count(
                    f"cache.{self.name}.evictions_dirty" if evicted_dirty
                    else f"cache.{self.name}.evictions_clean"
                )
        cache_set.install(way, tag, now, dirty=dirty)
        self.stats.fills += 1
        return AccessOutcome(
            hit=False,
            set_index=index,
            way=way,
            filled=True,
            evicted_address=evicted_address,
            evicted_dirty=evicted_dirty,
        )

    # --- maintenance ------------------------------------------------------

    def invalidate(self, address: int) -> bool:
        """Drop a line if present; returns True when something was dropped."""
        tag, index = self._split(address)
        cache_set = self.sets[index]
        way = cache_set.lookup(tag)
        if way is None:
            return False
        cache_set.invalidate_way(way)
        self.stats.invalidations += 1
        return True

    def evict(self, address: int) -> Optional[Tuple[int, bool]]:
        """Remove a line, returning ``(line_address, was_dirty)`` if present."""
        tag, index = self._split(address)
        cache_set = self.sets[index]
        way = cache_set.lookup(tag)
        if way is None:
            return None
        block = cache_set.blocks[way]
        dirty = block.dirty
        cache_set.invalidate_way(way)
        if dirty:
            self.stats.evictions_dirty += 1
        else:
            self.stats.evictions_clean += 1
        return self.mapper.rebuild(tag, index), dirty

    def extract(self, address: int) -> Optional[Tuple[int, bool]]:
        """Remove a line for migration, without eviction/invalidation stats.

        Returns ``(line_address, was_dirty)`` when present, else None.  Used
        by the two-part architecture when a block moves between arrays — the
        move is neither an eviction nor an invalidation architecturally.
        """
        tag, index = self._split(address)
        cache_set = self.sets[index]
        way = cache_set.lookup(tag)
        if way is None:
            return None
        block = cache_set.blocks[way]
        dirty = block.dirty
        cache_set.invalidate_way(way)
        return self.mapper.rebuild(tag, index), dirty

    def block_at(self, address: int) -> Optional[CacheBlock]:
        """The block holding ``address``, or None (analysis helper)."""
        tag, index = self._split(address)
        way = self.sets[index].lookup(tag)
        if way is None:
            return None
        return self.sets[index].blocks[way]

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines dropped."""
        dirty = 0
        for cache_set in self.sets:
            for way, block in enumerate(cache_set.blocks):
                if block.valid:
                    if block.dirty:
                        dirty += 1
                    cache_set.invalidate_way(way)
        return dirty

    # --- analysis views -------------------------------------------------------

    def iter_blocks(self) -> Iterator[Tuple[int, int, CacheBlock]]:
        """Yield ``(set_index, way, block)`` for every way (valid or not)."""
        for index, cache_set in enumerate(self.sets):
            for way, block in enumerate(cache_set.blocks):
                yield index, way, block

    def per_set_eviction_counts(self) -> List[int]:
        """Cumulative replacement victims per set (eviction-pressure map).

        Unlike the aggregate ``stats.evictions_*`` counters this resolves
        *where* replacement pressure lands, which is what the tracing layer
        reports for conflict-hot-set diagnosis (see ``docs/metrics.md``).
        """
        return list(self.set_evictions)

    def per_set_write_counts(self) -> List[int]:
        """Cumulative writes per set (inter-set variation input)."""
        return [s.set_writes for s in self.sets]

    def per_way_write_counts(self) -> List[List[int]]:
        """Current residents' write counts per set (intra-set variation)."""
        return [[b.total_writes for b in s.blocks] for s in self.sets]

    def per_frame_write_counts(self) -> List[List[int]]:
        """Cumulative cell-wear writes per physical frame (endurance input).

        Unlike :meth:`per_way_write_counts`, these counters persist across
        residencies (fills and write hits both wear the cells).
        """
        return [list(s.frame_writes) for s in self.sets]

    def dirty_count(self) -> int:
        """Number of valid dirty lines (the array's write-back debt)."""
        return sum(
            1 for _, _, block in self.iter_blocks() if block.valid and block.dirty
        )

    def occupancy(self) -> float:
        """Fraction of lines currently valid."""
        valid = sum(s.occupancy() for s in self.sets)
        return valid / self.num_lines
