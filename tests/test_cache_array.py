"""Tests for the behavioural set-associative cache array."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.array import SetAssociativeCache
from repro.errors import GeometryError
from repro.units import KB


def make_cache(capacity=16 * KB, assoc=4, line=256, **kwargs):
    return SetAssociativeCache(capacity, assoc, line, **kwargs)


class TestGeometry:
    def test_num_sets(self):
        cache = make_cache(16 * KB, 4, 256)
        assert cache.num_sets == 16

    def test_num_lines(self):
        cache = make_cache(16 * KB, 4, 256)
        assert cache.num_lines == 64

    def test_non_factoring_geometry_rejected(self):
        with pytest.raises(GeometryError):
            make_cache(16 * KB + 1, 4, 256)

    def test_seven_way_non_pow2_sets(self):
        cache = make_cache(1344 * KB, 7, 256)
        assert cache.num_sets == 768


class TestBasicAccess:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        first = cache.access(0x1000, is_write=False)
        assert not first.hit and first.filled
        second = cache.access(0x1000, is_write=False)
        assert second.hit

    def test_same_line_different_bytes_hit(self):
        cache = make_cache(line=256)
        cache.access(0x1000, is_write=False)
        assert cache.access(0x10FF, is_write=False).hit

    def test_write_marks_dirty(self):
        cache = make_cache()
        cache.access(0x2000, is_write=True)
        block = cache.block_at(0x2000)
        assert block is not None and block.dirty

    def test_read_fill_is_clean(self):
        cache = make_cache()
        cache.access(0x2000, is_write=False)
        block = cache.block_at(0x2000)
        assert block is not None and not block.dirty

    def test_write_no_allocate_mode(self):
        cache = make_cache()
        outcome = cache.access(0x3000, is_write=True, allocate=False)
        assert not outcome.hit and not outcome.filled
        assert cache.block_at(0x3000) is None

    def test_probe_has_no_side_effects(self):
        cache = make_cache()
        assert not cache.probe(0x1000)
        assert cache.stats.accesses == 0


class TestEviction:
    def test_conflict_eviction_reports_address(self):
        cache = make_cache(capacity=2 * 256, assoc=1, line=256)  # 2 sets, direct-mapped
        cache.access(0x0000, is_write=False)
        outcome = cache.access(0x0000 + 2 * 256, is_write=False)  # same set
        assert outcome.evicted_address == 0x0000
        assert not outcome.evicted_dirty

    def test_dirty_eviction_flagged(self):
        cache = make_cache(capacity=2 * 256, assoc=1, line=256)
        cache.access(0x0000, is_write=True)
        outcome = cache.access(0x0000 + 2 * 256, is_write=False)
        assert outcome.evicted_dirty
        assert cache.stats.evictions_dirty == 1

    def test_lru_eviction_order(self):
        cache = make_cache(capacity=2 * 256, assoc=2, line=256)  # 1 set, 2 ways
        cache.access(0x0000, is_write=False)
        cache.access(0x0100, is_write=False)
        cache.access(0x0000, is_write=False)  # touch 0 -> 0x100 is LRU
        outcome = cache.access(0x0200, is_write=False)
        assert outcome.evicted_address == 0x0100

    def test_explicit_evict(self):
        cache = make_cache()
        cache.access(0x5000, is_write=True)
        result = cache.evict(0x5000)
        assert result == (0x5000, True)
        assert cache.block_at(0x5000) is None

    def test_evict_missing_returns_none(self):
        cache = make_cache()
        assert cache.evict(0x5000) is None


class TestFill:
    def test_fill_installs_without_demand_stats(self):
        cache = make_cache()
        cache.fill(0x4000, dirty=True)
        assert cache.stats.accesses == 0
        assert cache.probe(0x4000)

    def test_fill_existing_line_merges_dirty(self):
        cache = make_cache()
        cache.fill(0x4000, dirty=False)
        cache.fill(0x4000, dirty=True)
        block = cache.block_at(0x4000)
        assert block is not None and block.dirty
        # no duplicate installed
        assert cache.stats.fills == 1


class TestInvalidate:
    def test_invalidate_present(self):
        cache = make_cache()
        cache.access(0x6000, is_write=False)
        assert cache.invalidate(0x6000)
        assert not cache.probe(0x6000)
        assert cache.stats.invalidations == 1

    def test_invalidate_absent(self):
        cache = make_cache()
        assert not cache.invalidate(0x6000)

    def test_flush_counts_dirty(self):
        cache = make_cache()
        cache.access(0x1000, is_write=True)
        cache.access(0x2000, is_write=False)
        assert cache.flush() == 1
        assert cache.occupancy() == 0.0


class TestStats:
    def test_hit_rate(self):
        cache = make_cache()
        cache.access(0x1000, is_write=False)
        cache.access(0x1000, is_write=False)
        cache.access(0x1000, is_write=True)
        assert cache.stats.accesses == 3
        assert cache.stats.hits == 2
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_write_counters_saturate(self):
        cache = make_cache(write_counter_saturation=3)
        cache.access(0x1000, is_write=True)
        for _ in range(10):
            cache.access(0x1000, is_write=True)
        block = cache.block_at(0x1000)
        assert block is not None
        assert block.write_count == 3
        assert block.total_writes == 11

    def test_per_set_write_counts(self):
        cache = make_cache(capacity=4 * 256, assoc=1, line=256)  # 4 sets
        cache.access(0 * 256, is_write=True)
        cache.access(1 * 256, is_write=True)
        cache.access(1 * 256, is_write=True)
        counts = cache.per_set_write_counts()
        assert counts[0] == 1 and counts[1] == 2 and counts[2] == 0


class TestCapacityBehaviour:
    def test_working_set_within_capacity_all_hits_after_warmup(self):
        cache = make_cache(capacity=16 * KB, assoc=4, line=256)
        lines = [i * 256 for i in range(32)]  # 8KB working set
        for addr in lines:
            cache.access(addr, is_write=False)
        for addr in lines:
            assert cache.access(addr, is_write=False).hit

    def test_streaming_never_rehits(self):
        cache = make_cache(capacity=4 * KB, assoc=4, line=256)
        for i in range(1000):
            outcome = cache.access(i * 256, is_write=False)
            assert not outcome.hit

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300),
           st.booleans())
    def test_occupancy_invariant(self, line_ids, writes):
        """Occupancy never exceeds 1.0 and the tag map stays consistent."""
        cache = make_cache(capacity=4 * KB, assoc=4, line=256)
        for lid in line_ids:
            cache.access(lid * 256, is_write=writes)
        assert 0.0 < cache.occupancy() <= 1.0
        # every valid block must be findable through block_at
        for index, way, block in cache.iter_blocks():
            if block.valid:
                addr = cache.mapper.rebuild(block.tag, index)
                found = cache.block_at(addr)
                assert found is block

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=63), st.booleans()),
                    min_size=1, max_size=200))
    def test_stats_balance(self, ops):
        """hits <= accesses; fills <= misses (write-allocate)."""
        cache = make_cache(capacity=2 * KB, assoc=2, line=256)
        for lid, is_write in ops:
            cache.access(lid * 256, is_write=is_write)
        stats = cache.stats
        assert stats.accesses == len(ops)
        assert stats.read_hits <= stats.reads
        assert stats.write_hits <= stats.writes
        assert stats.fills <= stats.accesses - stats.hits
        assert stats.evictions_clean + stats.evictions_dirty <= stats.fills
