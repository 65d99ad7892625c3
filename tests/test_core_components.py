"""Tests for the WWS monitor, migration buffers, search selector and
retention counters."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.block import CacheBlock
from repro.core.buffers import MigrationBuffer
from repro.core.monitor import WWSMonitor
from repro.core.retention_counter import RetentionCounterSpec
from repro.core.search import SearchSelector
from repro.errors import ConfigurationError
from repro.units import US


class TestWWSMonitor:
    def make_block(self, writes):
        block = CacheBlock()
        block.fill(0x1, now=0.0)
        block.write_count = writes
        return block

    def test_threshold_one_migrates_on_rewrite(self):
        monitor = WWSMonitor(threshold=1)
        assert not monitor.should_migrate(self.make_block(0))
        assert monitor.should_migrate(self.make_block(1))

    def test_threshold_three(self):
        monitor = WWSMonitor(threshold=3)
        assert not monitor.should_migrate(self.make_block(2))
        assert monitor.should_migrate(self.make_block(3))

    def test_stats_track_rate(self):
        monitor = WWSMonitor(threshold=1)
        monitor.should_migrate(self.make_block(0))
        monitor.should_migrate(self.make_block(5))
        assert monitor.stats.writes_observed == 2
        assert monitor.stats.migration_rate == pytest.approx(0.5)

    def test_threshold_must_fit_counter(self):
        with pytest.raises(ConfigurationError):
            WWSMonitor(threshold=4, counter_bits=2)  # max count is 3

    def test_threshold_15_fits_4_bits(self):
        monitor = WWSMonitor(threshold=15, counter_bits=4)
        assert monitor.saturation == 15

    def test_rejects_zero_threshold(self):
        with pytest.raises(ConfigurationError):
            WWSMonitor(threshold=0)


class TestMigrationBuffer:
    def test_push_and_drain(self):
        buf = MigrationBuffer(4, drain_service_time=10e-9)
        assert buf.push(0x100, True, now=0.0)
        assert len(buf) == 1
        assert buf.drain_ready(now=5e-9) == []
        assert buf.drain_ready(now=20e-9) == [(0x100, True)]
        assert len(buf) == 0

    def test_serialized_drain_port(self):
        buf = MigrationBuffer(4, drain_service_time=10e-9)
        buf.push(0x100, True, now=0.0)
        buf.push(0x200, False, now=0.0)
        # second entry waits for the first drain: ready at 20ns
        assert buf.drain_ready(now=15e-9) == [(0x100, True)]
        assert buf.drain_ready(now=25e-9) == [(0x200, False)]

    def test_overflow_returns_false(self):
        buf = MigrationBuffer(1, drain_service_time=1.0)
        assert buf.push(0x100, True, now=0.0)
        assert not buf.push(0x200, True, now=0.0)
        assert buf.stats.overflows == 1

    def test_force_pop(self):
        buf = MigrationBuffer(1, drain_service_time=1.0)
        buf.push(0x100, True, now=0.0)
        assert buf.force_pop() == (0x100, True)
        assert len(buf) == 0

    def test_force_pop_empty_raises(self):
        buf = MigrationBuffer(1, drain_service_time=1.0)
        with pytest.raises(ConfigurationError):
            buf.force_pop()

    def test_contains_and_pending(self):
        buf = MigrationBuffer(4, drain_service_time=1.0)
        buf.push(0x100, True, now=0.0)
        assert buf.pending() == [0x100]

    def test_peak_occupancy(self):
        buf = MigrationBuffer(4, drain_service_time=1.0)
        for i in range(3):
            buf.push(i * 256, False, now=0.0)
        assert buf.stats.peak_occupancy == 3

    @given(st.lists(st.booleans(), min_size=1, max_size=60))
    def test_occupancy_never_exceeds_capacity(self, dirties):
        buf = MigrationBuffer(5, drain_service_time=1.0)
        for i, dirty in enumerate(dirties):
            if buf.full:
                buf.force_pop()
            buf.push(i * 256, dirty, now=0.0)
            assert len(buf) <= 5


class TestSearchSelector:
    def test_probe_orders(self):
        selector = SearchSelector()
        assert selector.probe_order(is_write=True) == ("lr", "hr")
        assert selector.probe_order(is_write=False) == ("hr", "lr")

    def test_sequential_first_hit_one_probe(self):
        selector = SearchSelector(sequential=True)
        assert selector.record(is_write=True, hit_part="lr") == 1
        assert selector.record(is_write=False, hit_part="hr") == 1

    def test_sequential_second_hit_two_probes(self):
        selector = SearchSelector(sequential=True)
        assert selector.record(is_write=True, hit_part="hr") == 2
        assert selector.record(is_write=False, hit_part="lr") == 2

    def test_sequential_miss_two_probes(self):
        selector = SearchSelector(sequential=True)
        assert selector.record(is_write=False, hit_part="miss") == 2

    def test_parallel_always_two_probes(self):
        selector = SearchSelector(sequential=False)
        assert selector.record(is_write=True, hit_part="lr") == 2
        assert selector.record(is_write=False, hit_part="miss") == 2

    def test_latency_factor(self):
        seq = SearchSelector(sequential=True)
        par = SearchSelector(sequential=False)
        assert seq.latency_factor(2) == 2
        assert par.latency_factor(2) == 1

    def test_rejects_unknown_part(self):
        with pytest.raises(ConfigurationError):
            SearchSelector().record(True, "l3")


class TestRetentionCounterSpec:
    def test_paper_geometry(self):
        lr = RetentionCounterSpec(bits=4, retention_s=40 * US)
        assert lr.states == 16
        assert lr.tick_s == pytest.approx(2.5 * US)

    def test_needs_refresh_window(self):
        spec = RetentionCounterSpec(bits=4, retention_s=40 * US)
        assert not spec.needs_refresh(30 * US)
        assert spec.needs_refresh(38 * US)
        assert not spec.needs_refresh(41 * US)  # already expired

    def test_expired(self):
        spec = RetentionCounterSpec(bits=4, retention_s=40 * US)
        assert spec.expired(40 * US)
        assert not spec.expired(39 * US)

    def test_refresh_age_two_ticks_before_expiry(self):
        spec = RetentionCounterSpec(bits=4, retention_s=40 * US)
        assert spec.refresh_age_s == pytest.approx(35 * US)

    def test_refresh_age_degenerate_one_bit(self):
        spec = RetentionCounterSpec(bits=1, retention_s=40 * US)
        assert spec.refresh_age_s == pytest.approx(20 * US)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            RetentionCounterSpec(bits=0, retention_s=1.0)
        with pytest.raises(ConfigurationError):
            RetentionCounterSpec(bits=4, retention_s=0.0)
