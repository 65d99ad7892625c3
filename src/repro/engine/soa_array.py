"""Flat structure-of-arrays cache array for the ``soa`` replay engine.

:class:`SoaCacheArray` is a drop-in replacement for
:class:`repro.cache.array.SetAssociativeCache` that stores all per-line
state in flat parallel Python lists instead of one ``CacheBlock`` object
per line (docs/engine.md documents each vector).  Every method reproduces
the object array's semantics *exactly* — same counters bumped in the same
order, same LRU recency updates, same shared-outcome caching — so the two
engines stay access-for-access equivalent.  Steady-state demand accesses
allocate nothing: hit/miss outcomes are cached and all state updates are
list-element writes.

Cold paths (analysis, snapshots, fault audits) still expect
``CacheBlock``-shaped objects and ``CacheSet``-shaped sets; the
:class:`SoaBlockView` and :class:`SoaSetView` proxies provide write-through
views over the flat vectors so inherited object-model code (refresh
sweeps, state snapshots, per-set analyses) runs unmodified on SoA state.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cache.address import AddressMapper
from repro.cache.array import AccessOutcome
from repro.cache.stats import CacheStats
from repro.errors import ConfigurationError, GeometryError
from repro.tracing import NULL_TRACER, TraceCollector


class SoaBlockView:
    """Write-through ``CacheBlock`` facade over one flat-array slot.

    Mirrors every :class:`repro.cache.block.CacheBlock` attribute as a
    property pair reading/writing the owning array's vectors, so cold-path
    code that mutates blocks in place (e.g. a refresh rewriting
    ``insert_time``) works identically on either engine.
    """

    __slots__ = ("_array", "_slot")

    def __init__(self, array: "SoaCacheArray", slot: int) -> None:
        self._array = array
        self._slot = slot

    @property
    def tag(self) -> int:
        """Line tag (-1 when invalid)."""
        return self._array.tag_vec[self._slot]

    @tag.setter
    def tag(self, value: int) -> None:
        self._array.tag_vec[self._slot] = value

    @property
    def valid(self) -> bool:
        """Whether the slot holds a live line."""
        return self._array.valid_vec[self._slot]

    @valid.setter
    def valid(self, value: bool) -> None:
        self._array.valid_vec[self._slot] = value

    @property
    def dirty(self) -> bool:
        """Whether the line carries unwritten-back data."""
        return self._array.dirty_vec[self._slot]

    @dirty.setter
    def dirty(self, value: bool) -> None:
        self._array.dirty_vec[self._slot] = value

    @property
    def write_count(self) -> int:
        """Saturating per-residency write counter (WWS input)."""
        return self._array.write_count_vec[self._slot]

    @write_count.setter
    def write_count(self, value: int) -> None:
        self._array.write_count_vec[self._slot] = value

    @property
    def total_writes(self) -> int:
        """Writes to the current resident (resets on fill)."""
        return self._array.total_writes_vec[self._slot]

    @total_writes.setter
    def total_writes(self, value: int) -> None:
        self._array.total_writes_vec[self._slot] = value

    @property
    def total_reads(self) -> int:
        """Reads of the current resident (resets on fill)."""
        return self._array.total_reads_vec[self._slot]

    @total_reads.setter
    def total_reads(self, value: int) -> None:
        self._array.total_reads_vec[self._slot] = value

    @property
    def last_write_time(self) -> float:
        """Timestamp of the last dirty write (0.0 if never written)."""
        return self._array.last_write_time_vec[self._slot]

    @last_write_time.setter
    def last_write_time(self, value: float) -> None:
        self._array.last_write_time_vec[self._slot] = value

    @property
    def last_access_time(self) -> float:
        """Timestamp of the last demand access."""
        return self._array.last_access_time_vec[self._slot]

    @last_access_time.setter
    def last_access_time(self, value: float) -> None:
        self._array.last_access_time_vec[self._slot] = value

    @property
    def insert_time(self) -> float:
        """Fill (or last refresh) timestamp — the retention clock anchor."""
        return self._array.insert_time_vec[self._slot]

    @insert_time.setter
    def insert_time(self, value: float) -> None:
        self._array.insert_time_vec[self._slot] = value


class SoaSetView:
    """Read-mostly ``CacheSet`` facade over one set's slice of the vectors.

    Provides the subset of the :class:`repro.cache.cacheset.CacheSet` API
    that analysis and maintenance code consumes (``lookup``, ``blocks``,
    ``set_writes``, ``frame_writes``, ``occupancy``, ``valid_blocks``).
    """

    __slots__ = ("_array", "_index")

    def __init__(self, array: "SoaCacheArray", index: int) -> None:
        self._array = array
        self._index = index

    @property
    def associativity(self) -> int:
        """Number of ways."""
        return self._array.associativity

    @property
    def blocks(self) -> List[SoaBlockView]:
        """Write-through block views for every way of this set."""
        array = self._array
        base = self._index * array.associativity
        return array.block_views[base:base + array.associativity]

    @property
    def set_writes(self) -> int:
        """Total writes observed by this set (inter-set COV input)."""
        return self._array.set_writes_vec[self._index]

    @property
    def frame_writes(self) -> List[int]:
        """Cumulative cell-wear writes per physical way (never reset)."""
        array = self._array
        base = self._index * array.associativity
        return array.frame_writes_vec[base:base + array.associativity]

    def lookup(self, tag: int) -> Optional[int]:
        """Return the way holding ``tag``, or None (no side effects)."""
        return self._array.tag_to_way[self._index].get(tag)

    def valid_blocks(self) -> List[SoaBlockView]:
        """All currently valid lines (analysis helper)."""
        return [b for b in self.blocks if b.valid]

    def occupancy(self) -> int:
        """Number of valid ways."""
        array = self._array
        base = self._index * array.associativity
        return sum(
            1 for slot in range(base, base + array.associativity)
            if array.valid_vec[slot]
        )


class SoaCacheArray:
    """Structure-of-arrays set-associative cache (LRU only).

    Same constructor signature and behavioural contract as
    :class:`repro.cache.array.SetAssociativeCache`; see the module
    docstring and docs/engine.md for the layout.  Only the ``lru``
    replacement policy is supported — the engine registry falls back to
    the object engine for anything else.
    """

    def __init__(
        self,
        capacity_bytes: int,
        associativity: int,
        line_size: int,
        policy: str = "lru",
        name: str = "cache",
        write_allocate: bool = True,
        write_counter_saturation: int = 0,
        seed: int = 0,
        tracer: Optional[TraceCollector] = None,
    ) -> None:
        if capacity_bytes <= 0 or associativity <= 0 or line_size <= 0:
            raise GeometryError("capacity, associativity and line size must be positive")
        if capacity_bytes % (associativity * line_size) != 0:
            raise GeometryError(
                f"{capacity_bytes}B does not factor into {associativity} ways "
                f"of {line_size}B lines"
            )
        if policy != "lru":
            raise ConfigurationError(
                f"SoaCacheArray supports only the 'lru' policy, got {policy!r}"
            )
        num_sets = capacity_bytes // (associativity * line_size)
        num_lines = num_sets * associativity
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.associativity = associativity
        self.line_size = line_size
        self.write_allocate = write_allocate
        self.write_counter_saturation = write_counter_saturation
        self.mapper = AddressMapper(line_size=line_size, num_sets=num_sets)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = CacheStats()

        # --- the flat state vectors (one element per physical line) -------
        #: line tags; -1 marks an invalid slot
        self.tag_vec: List[int] = [-1] * num_lines
        #: validity bits
        self.valid_vec: List[bool] = [False] * num_lines
        #: dirty bits
        self.dirty_vec: List[bool] = [False] * num_lines
        #: saturating per-residency write counters (WWS / retention inputs)
        self.write_count_vec: List[int] = [0] * num_lines
        #: per-residency write totals (intra-set variation input)
        self.total_writes_vec: List[int] = [0] * num_lines
        #: per-residency read totals
        self.total_reads_vec: List[int] = [0] * num_lines
        #: last dirty-write timestamps (retention-clock input)
        self.last_write_time_vec: List[float] = [0.0] * num_lines
        #: last demand-access timestamps
        self.last_access_time_vec: List[float] = [0.0] * num_lines
        #: fill/refresh timestamps (retention-clock anchor)
        self.insert_time_vec: List[float] = [0.0] * num_lines
        #: cumulative cell-wear writes per frame (never reset by fills)
        self.frame_writes_vec: List[int] = [0] * num_lines
        #: per-set write totals
        self.set_writes_vec: List[int] = [0] * num_sets
        #: replacement-victim count per set (eviction-pressure profile)
        self.set_evictions: List[int] = [0] * num_sets
        #: per-set tag -> way maps (the associative lookup)
        self.tag_to_way: List[Dict[int, int]] = [dict() for _ in range(num_sets)]
        #: per-set LRU recency lists, LRU at the front / MRU at the back
        self.lru: List[List[int]] = [
            list(range(associativity)) for _ in range(num_sets)
        ]

        # shared-outcome caches, exactly like the object array's
        self._hit_outcomes: dict = {}
        self._miss_outcomes: dict = {}

        # hoisted geometry scalars for the inlined split
        self._offset_bits = self.mapper.offset_bits
        self._pow2 = self.mapper.pow2_sets
        self._set_bits = self.mapper._set_bits
        self._set_mask = self.mapper._set_mask
        self._num_sets = num_sets

    # --- cold-path views, built on first use ------------------------------

    @cached_property
    def block_views(self) -> List[SoaBlockView]:
        """Write-through views, one per line (analysis and audits only)."""
        return [SoaBlockView(self, slot) for slot in range(self.num_lines)]

    @cached_property
    def sets(self) -> List[SoaSetView]:
        """Set views, one per set (analysis and audits only)."""
        return [SoaSetView(self, index) for index in range(self._num_sets)]

    # --- geometry ---------------------------------------------------------

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self._num_sets

    @property
    def num_lines(self) -> int:
        """Total number of lines."""
        return self._num_sets * self.associativity

    # --- demand path ------------------------------------------------------

    def _split_fast(self, address: int) -> Tuple[int, int]:
        """Inlined :meth:`AddressMapper.split` (same checks, same results)."""
        if address < 0:
            raise GeometryError(f"address must be non-negative, got {address}")
        line = address >> self._offset_bits
        if self._pow2:
            return line >> self._set_bits, line & self._set_mask
        return divmod(line, self._num_sets)[0], line % self._num_sets

    def probe(self, address: int) -> bool:
        """Presence check without side effects (no stats, no LRU update)."""
        tag, index = self._split_fast(address)
        return tag in self.tag_to_way[index]

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

        Semantics identical to
        :meth:`repro.cache.array.SetAssociativeCache.access`.
        """
        tag, index = self._split_fast(address)
        way = self.tag_to_way[index].get(tag)
        stats = self.stats

        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1

        if way is not None:
            slot = index * self.associativity + way
            if is_write:
                stats.write_hits += 1
                # CacheBlock.record_write + CacheSet write accounting
                self.dirty_vec[slot] = True
                self.total_writes_vec[slot] += 1
                saturate_at = self.write_counter_saturation
                if saturate_at <= 0 or self.write_count_vec[slot] < saturate_at:
                    self.write_count_vec[slot] += 1
                self.last_write_time_vec[slot] = now
                self.last_access_time_vec[slot] = now
                self.set_writes_vec[index] += 1
                self.frame_writes_vec[slot] += 1
            else:
                stats.read_hits += 1
                self.total_reads_vec[slot] += 1
                self.last_access_time_vec[slot] = now
            order = self.lru[index]
            order.remove(way)
            order.append(way)
            return self._hit_outcome(index, way)

        # miss
        if not allocate or (is_write and not self.write_allocate):
            outcome = self._miss_outcomes.get(index)
            if outcome is None:
                outcome = AccessOutcome(hit=False, set_index=index, way=-1)
                self._miss_outcomes[index] = outcome
            return outcome
        return self._fill(index, tag, now, dirty=is_write)

    def fill(self, address: int, now: float = 0.0, dirty: bool = False) -> AccessOutcome:
        """Install a line without a demand access (e.g. migration target)."""
        tag, index = self._split_fast(address)
        way = self.tag_to_way[index].get(tag)
        if way is not None:
            if dirty:
                slot = index * self.associativity + way
                self.dirty_vec[slot] = True
                self.total_writes_vec[slot] += 1
                saturate_at = self.write_counter_saturation
                if saturate_at <= 0 or self.write_count_vec[slot] < saturate_at:
                    self.write_count_vec[slot] += 1
                self.last_write_time_vec[slot] = now
                self.last_access_time_vec[slot] = now
                self.set_writes_vec[index] += 1
                self.frame_writes_vec[slot] += 1
            order = self.lru[index]
            order.remove(way)
            order.append(way)
            return self._hit_outcome(index, way)
        return self._fill(index, tag, now, dirty=dirty)

    def _fill(self, index: int, tag: int, now: float, dirty: bool) -> AccessOutcome:
        """Install into the victim way (invalid ways first, else LRU)."""
        assoc = self.associativity
        base = index * assoc
        valid = self.valid_vec
        way = -1
        for candidate in range(assoc):
            if not valid[base + candidate]:
                way = candidate
                break
        if way < 0:
            way = self.lru[index][0]
        slot = base + way
        evicted_address: Optional[int] = None
        evicted_dirty = False
        tag_map = self.tag_to_way[index]
        if valid[slot]:
            victim_tag = self.tag_vec[slot]
            if self._pow2:
                victim_line = (victim_tag << self._set_bits) | index
            else:
                victim_line = victim_tag * self._num_sets + index
            evicted_address = victim_line << self._offset_bits
            evicted_dirty = self.dirty_vec[slot]
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
            del tag_map[victim_tag]
        # CacheBlock.fill + CacheSet.install
        self.tag_vec[slot] = tag
        valid[slot] = True
        self.dirty_vec[slot] = dirty
        initial = 1 if dirty else 0
        self.write_count_vec[slot] = initial
        self.total_writes_vec[slot] = initial
        self.total_reads_vec[slot] = 0
        self.last_write_time_vec[slot] = now if dirty else 0.0
        self.last_access_time_vec[slot] = now
        self.insert_time_vec[slot] = now
        tag_map[tag] = way
        order = self.lru[index]
        order.remove(way)
        order.append(way)
        self.frame_writes_vec[slot] += 1
        if dirty:
            self.set_writes_vec[index] += 1
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

    def _reset_slot(self, index: int, way: int) -> None:
        """CacheSet.invalidate_way: drop the tag mapping and zero the slot."""
        slot = index * self.associativity + way
        if self.valid_vec[slot]:
            self.tag_to_way[index].pop(self.tag_vec[slot], None)
        self.tag_vec[slot] = -1
        self.valid_vec[slot] = False
        self.dirty_vec[slot] = False
        self.write_count_vec[slot] = 0
        self.total_writes_vec[slot] = 0
        self.total_reads_vec[slot] = 0
        self.last_write_time_vec[slot] = 0.0
        self.last_access_time_vec[slot] = 0.0
        self.insert_time_vec[slot] = 0.0

    def invalidate(self, address: int) -> bool:
        """Drop a line if present; returns True when something was dropped."""
        tag, index = self._split_fast(address)
        way = self.tag_to_way[index].get(tag)
        if way is None:
            return False
        self._reset_slot(index, way)
        self.stats.invalidations += 1
        return True

    def evict(self, address: int) -> Optional[Tuple[int, bool]]:
        """Remove a line, returning ``(line_address, was_dirty)`` if present."""
        tag, index = self._split_fast(address)
        way = self.tag_to_way[index].get(tag)
        if way is None:
            return None
        dirty = self.dirty_vec[index * self.associativity + way]
        self._reset_slot(index, way)
        if dirty:
            self.stats.evictions_dirty += 1
        else:
            self.stats.evictions_clean += 1
        return self.mapper.rebuild(tag, index), dirty

    def extract(self, address: int) -> Optional[Tuple[int, bool]]:
        """Remove a line for migration, without eviction/invalidation stats."""
        tag, index = self._split_fast(address)
        way = self.tag_to_way[index].get(tag)
        if way is None:
            return None
        dirty = self.dirty_vec[index * self.associativity + way]
        self._reset_slot(index, way)
        return self.mapper.rebuild(tag, index), dirty

    def block_at(self, address: int) -> Optional[SoaBlockView]:
        """The block view holding ``address``, or None (analysis helper)."""
        tag, index = self._split_fast(address)
        way = self.tag_to_way[index].get(tag)
        if way is None:
            return None
        return SoaBlockView(self, index * self.associativity + way)

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines dropped."""
        dirty = 0
        for index in range(self._num_sets):
            base = index * self.associativity
            for way in range(self.associativity):
                if self.valid_vec[base + way]:
                    if self.dirty_vec[base + way]:
                        dirty += 1
                    self._reset_slot(index, way)
        return dirty

    # --- analysis views ---------------------------------------------------

    def iter_blocks(self) -> Iterator[Tuple[int, int, SoaBlockView]]:
        """Yield ``(set_index, way, block_view)`` for every way."""
        assoc = self.associativity
        views = self.block_views
        for index in range(self._num_sets):
            base = index * assoc
            for way in range(assoc):
                yield index, way, views[base + way]

    def per_set_eviction_counts(self) -> List[int]:
        """Cumulative replacement victims per set (eviction-pressure map)."""
        return list(self.set_evictions)

    def per_set_write_counts(self) -> List[int]:
        """Cumulative writes per set (inter-set variation input)."""
        return list(self.set_writes_vec)

    def per_way_write_counts(self) -> List[List[int]]:
        """Current residents' write counts per set (intra-set variation)."""
        assoc = self.associativity
        return [
            self.total_writes_vec[index * assoc:(index + 1) * assoc]
            for index in range(self._num_sets)
        ]

    def per_frame_write_counts(self) -> List[List[int]]:
        """Cumulative cell-wear writes per physical frame (endurance input)."""
        assoc = self.associativity
        return [
            self.frame_writes_vec[index * assoc:(index + 1) * assoc]
            for index in range(self._num_sets)
        ]

    def dirty_count(self) -> int:
        """Number of valid dirty lines (the array's write-back debt)."""
        pairs = zip(self.valid_vec, self.dirty_vec)
        return sum(1 for valid, dirty in pairs if valid and dirty)

    def occupancy(self) -> float:
        """Fraction of lines currently valid."""
        return sum(self.valid_vec) / self.num_lines
