"""Tests for CacheBlock and CacheSet primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.block import CacheBlock
from repro.cache.cacheset import CacheSet
from repro.errors import ConfigurationError


class TestCacheBlock:
    def test_initial_state_invalid(self):
        block = CacheBlock()
        assert not block.valid and not block.dirty
        assert block.tag == -1

    def test_fill_clean(self):
        block = CacheBlock()
        block.fill(0x42, now=1.0)
        assert block.valid and not block.dirty
        assert block.write_count == 0
        assert block.insert_time == 1.0

    def test_fill_dirty_counts_as_write(self):
        block = CacheBlock()
        block.fill(0x42, now=1.0, dirty=True)
        assert block.dirty
        assert block.write_count == 1
        assert block.total_writes == 1
        assert block.last_write_time == 1.0

    def test_record_write_saturates(self):
        block = CacheBlock()
        block.fill(0x1, now=0.0)
        for i in range(10):
            block.record_write(now=float(i), saturate_at=3)
        assert block.write_count == 3
        assert block.total_writes == 10

    def test_record_write_unbounded_without_saturation(self):
        block = CacheBlock()
        block.fill(0x1, now=0.0)
        for i in range(10):
            block.record_write(now=float(i))
        assert block.write_count == 10

    def test_reset_clears_everything(self):
        block = CacheBlock()
        block.fill(0x1, now=1.0, dirty=True)
        block.record_write(2.0)
        block.reset()
        assert not block.valid and not block.dirty
        assert block.total_writes == 0 and block.write_count == 0
        assert block.last_write_time == 0.0 and block.insert_time == 0.0


class TestCacheSet:
    def test_lookup_miss(self):
        cache_set = CacheSet(4)
        assert cache_set.lookup(0x1) is None

    def test_install_then_lookup(self):
        cache_set = CacheSet(4)
        way = cache_set.victim_way()
        cache_set.install(way, 0x1, now=0.0)
        assert cache_set.lookup(0x1) == way

    def test_install_replaces_tag_mapping(self):
        cache_set = CacheSet(1)
        cache_set.install(0, 0x1, now=0.0)
        cache_set.install(0, 0x2, now=1.0)
        assert cache_set.lookup(0x1) is None
        assert cache_set.lookup(0x2) == 0

    def test_invalidate_way(self):
        cache_set = CacheSet(2)
        cache_set.install(0, 0x1, now=0.0)
        cache_set.invalidate_way(0)
        assert cache_set.lookup(0x1) is None
        assert cache_set.occupancy() == 0

    def test_set_writes_counter(self):
        cache_set = CacheSet(2)
        cache_set.install(0, 0x1, now=0.0, dirty=True)
        cache_set.record_write(0, now=1.0)
        assert cache_set.set_writes == 2

    def test_victim_prefers_invalid(self):
        cache_set = CacheSet(2)
        cache_set.install(0, 0x1, now=0.0)
        assert cache_set.victim_way() == 1

    def test_rejects_zero_associativity(self):
        with pytest.raises(ConfigurationError):
            CacheSet(0)

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=60))
    def test_tag_map_consistent(self, tags):
        """After any install sequence, lookup agrees with block state."""
        cache_set = CacheSet(4)
        for tag in tags:
            if cache_set.lookup(tag) is None:
                way = cache_set.victim_way()
                cache_set.install(way, tag, now=0.0)
        for way, block in enumerate(cache_set.blocks):
            if block.valid:
                assert cache_set.lookup(block.tag) == way
