"""Flat structure-of-arrays cache array for the ``soa`` replay engine.

:class:`SoaCacheArray` stands in for
:class:`repro.cache.array.SetAssociativeCache` wherever the SoA L2s and
the characterization replays use one, storing all per-line state in flat
parallel Python lists instead of one ``CacheBlock`` object per line
(docs/engine.md documents each vector).  It implements the part of the
object array's API those callers reach — ``access``, ``invalidate`` and
the analysis read-outs — and each method reproduces the
object array's semantics *exactly*: same counters bumped in the same
order, same victims, same shared hit outcomes, so the two engines stay
access-for-access equivalent.  A set's LRU order is the insertion order
of its ``tag -> way`` dict: a hit re-inserts the tag, a fill appends it,
and a full set evicts its first key.  Demand hits allocate nothing: hit
outcomes are cached and all state updates are list-element writes.

State snapshots still walk ``CacheBlock``-shaped objects;
:meth:`SoaCacheArray.iter_blocks` yields read-only :class:`SoaBlockView`
proxies over the flat vectors, so the inherited snapshot code runs
unmodified on SoA state.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cache.address import AddressMapper
from repro.cache.array import AccessOutcome
from repro.cache.stats import CacheStats
from repro.errors import GeometryError
from repro.tracing import NULL_TRACER, TraceCollector


class SoaBlockView:
    """Read-only ``CacheBlock`` facade over one flat-array slot.

    Mirrors every :class:`repro.cache.block.CacheBlock` attribute as a
    property reading the owning array's vectors, for cold-path code that
    walks blocks (state snapshots, analyses).
    """

    __slots__ = ("_array", "_slot")

    def __init__(self, array: "SoaCacheArray", slot: int) -> None:
        self._array = array
        self._slot = slot

    @property
    def tag(self) -> int:
        """Line tag (-1 when invalid)."""
        return self._array.tag_vec[self._slot]

    @property
    def valid(self) -> bool:
        """Whether the slot holds a live line."""
        return self._array.valid_vec[self._slot]

    @property
    def dirty(self) -> bool:
        """Whether the line carries unwritten-back data."""
        return self._array.dirty_vec[self._slot]

    @property
    def write_count(self) -> int:
        """Saturating per-residency write counter (WWS input)."""
        return self._array.write_count_vec[self._slot]

    @property
    def total_writes(self) -> int:
        """Writes to the current resident (resets on fill)."""
        return self._array.total_writes_vec[self._slot]

    @property
    def last_write_time(self) -> float:
        """Timestamp of the last dirty write (0.0 if never written)."""
        return self._array.last_write_time_vec[self._slot]

    @property
    def insert_time(self) -> float:
        """Fill (or last refresh) timestamp — the retention clock anchor."""
        return self._array.insert_time_vec[self._slot]


class SoaCacheArray:
    """Structure-of-arrays set-associative cache (LRU, write-allocate).

    Takes the arguments of :class:`repro.cache.array.SetAssociativeCache`
    that its callers pass and keeps that class's behavioural contract;
    see the module docstring and docs/engine.md for the layout.  Every
    miss allocates.
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
        num_lines = num_sets * associativity
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.associativity = associativity
        self.line_size = line_size
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
        #: last dirty-write timestamps (retention-clock input)
        self.last_write_time_vec: List[float] = [0.0] * num_lines
        #: fill/refresh timestamps (retention-clock anchor)
        self.insert_time_vec: List[float] = [0.0] * num_lines
        #: per-set write totals
        self.set_writes_vec: List[int] = [0] * num_sets
        #: per-set tag -> way maps (the associative lookup), in recency
        #: order: LRU first, MRU last
        self.tag_to_way: List[Dict[int, int]] = [dict() for _ in range(num_sets)]

        # shared hit outcomes, exactly like the object array's
        self._hit_outcomes: dict = {}

        # hoisted geometry scalars for the inlined split
        self._offset_bits = self.mapper.offset_bits
        self._pow2 = self.mapper.pow2_sets
        self._set_bits = self.mapper._set_bits
        self._set_mask = self.mapper._set_mask
        self._num_sets = num_sets

    # --- cold-path views, built on first use ------------------------------

    @cached_property
    def block_views(self) -> List[SoaBlockView]:
        """Block views, one per line (snapshots and analyses only)."""
        return [SoaBlockView(self, slot) for slot in range(self.num_lines)]

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
        return divmod(line, self._num_sets)

    def _hit_outcome(self, index: int, way: int) -> AccessOutcome:
        """The shared plain-hit outcome for ``(index, way)``."""
        key = index * self.associativity + way
        outcome = self._hit_outcomes.get(key)
        if outcome is None:
            outcome = AccessOutcome(hit=True, set_index=index, way=way)
            self._hit_outcomes[key] = outcome
        return outcome

    def access(self, address: int, is_write: bool, now: float = 0.0) -> AccessOutcome:
        """Perform a demand access with allocation on miss.

        Semantics identical to
        :meth:`repro.cache.array.SetAssociativeCache.access`.
        """
        tag, index = self._split_fast(address)
        tag_map = self.tag_to_way[index]
        way = tag_map.get(tag)
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
                self.set_writes_vec[index] += 1
            else:
                stats.read_hits += 1
            del tag_map[tag]
            tag_map[tag] = way
            return self._hit_outcome(index, way)

        return self._fill(index, tag, now, dirty=is_write)

    def _fill(self, index: int, tag: int, now: float, dirty: bool) -> AccessOutcome:
        """Install into the victim way (invalid ways first, else LRU)."""
        assoc = self.associativity
        base = index * assoc
        valid = self.valid_vec
        evicted_address: Optional[int] = None
        evicted_dirty = False
        tag_map = self.tag_to_way[index]
        if len(tag_map) < assoc:
            for way in range(assoc):
                if not valid[base + way]:
                    break
            slot = base + way
        else:
            victim_tag = next(iter(tag_map))
            way = tag_map.pop(victim_tag)
            slot = base + way
            if self._pow2:
                victim_line = (victim_tag << self._set_bits) | index
            else:
                victim_line = victim_tag * self._num_sets + index
            evicted_address = victim_line << self._offset_bits
            evicted_dirty = self.dirty_vec[slot]
            if evicted_dirty:
                self.stats.evictions_dirty += 1
            else:
                self.stats.evictions_clean += 1
            if self.tracer.enabled:
                self.tracer.count(
                    f"cache.{self.name}.evictions_dirty" if evicted_dirty
                    else f"cache.{self.name}.evictions_clean"
                )
        # CacheBlock.fill + CacheSet.install
        self.tag_vec[slot] = tag
        valid[slot] = True
        self.dirty_vec[slot] = dirty
        initial = 1 if dirty else 0
        self.write_count_vec[slot] = initial
        self.total_writes_vec[slot] = initial
        self.last_write_time_vec[slot] = now if dirty else 0.0
        self.insert_time_vec[slot] = now
        tag_map[tag] = way
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
        self.last_write_time_vec[slot] = 0.0
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

    # --- analysis views ---------------------------------------------------

    def iter_blocks(self) -> Iterator[Tuple[int, int, SoaBlockView]]:
        """Yield ``(set_index, way, block_view)`` for every way."""
        assoc = self.associativity
        views = self.block_views
        for index in range(self._num_sets):
            base = index * assoc
            for way in range(assoc):
                yield index, way, views[base + way]

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

    def dirty_count(self) -> int:
        """Number of valid dirty lines (the array's write-back debt)."""
        pairs = zip(self.valid_vec, self.dirty_vec)
        return sum(1 for valid, dirty in pairs if valid and dirty)
