"""Tests for the uniform L2 baselines and the refresh engine."""

import pytest

from repro.cache.array import SetAssociativeCache
from repro.core.refresh import RefreshEngine, cell_age
from repro.core.retention_counter import RetentionCounterSpec
from repro.core.uniform import UniformL2
from repro.errors import ConfigurationError
from repro.units import KB, MS, US


class TestUniformL2:
    def make(self, technology="sram"):
        return UniformL2(64 * KB, 8, 256, technology=technology)

    def test_miss_then_hit(self):
        l2 = self.make()
        miss = l2.access(0x1000, is_write=False, now=0.0)
        assert not miss.hit and miss.dram_fetch
        hit = l2.access(0x1000, is_write=False, now=1e-9)
        assert hit.hit and not hit.dram_fetch

    def test_dirty_eviction_reports_writeback(self):
        l2 = UniformL2(2 * 256, 1, 256, technology="sram")  # 2 lines
        l2.access(0x0000, is_write=True, now=0.0)
        outcome = l2.access(0x0000 + 2 * 256, is_write=False, now=1e-9)
        assert outcome.dram_writebacks == 1

    def test_stt_write_latency_exceeds_read(self):
        l2 = self.make("stt")
        l2.access(0x1000, is_write=False, now=0.0)
        read = l2.access(0x1000, is_write=False, now=1e-9)
        write = l2.access(0x1000, is_write=True, now=2e-9)
        assert write.latency_s > read.latency_s

    def test_sram_symmetric_latency(self):
        l2 = self.make("sram")
        l2.access(0x1000, is_write=False, now=0.0)
        read = l2.access(0x1000, is_write=False, now=1e-9)
        write = l2.access(0x1000, is_write=True, now=2e-9)
        assert write.latency_s == pytest.approx(read.latency_s)

    def test_energy_accumulates(self):
        l2 = self.make()
        l2.access(0x1000, is_write=False, now=0.0)
        first = l2.energy.total_j
        l2.access(0x2000, is_write=True, now=1e-9)
        assert l2.energy.total_j > first

    def test_dirty_lines_counted(self):
        l2 = self.make()
        l2.access(0x1000, is_write=True, now=0.0)
        l2.access(0x2000, is_write=False, now=1e-9)
        assert l2.dirty_lines() == 1

    def test_unknown_technology_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformL2(64 * KB, 8, 256, technology="pcm")

    def test_stt_leaks_less_than_sram(self):
        assert self.make("stt").leakage_power < self.make("sram").leakage_power

    def test_data_writes_counted(self):
        l2 = self.make()
        l2.access(0x1000, is_write=True, now=0.0)   # miss -> dirty fill
        l2.access(0x1000, is_write=True, now=1e-9)  # write hit
        assert l2.data_writes == 2


class TestCellAge:
    def test_age_from_fill(self):
        from repro.cache.block import CacheBlock

        block = CacheBlock()
        block.fill(0x1, now=2.0)
        assert cell_age(block, 5.0) == pytest.approx(3.0)

    def test_age_resets_on_write(self):
        from repro.cache.block import CacheBlock

        block = CacheBlock()
        block.fill(0x1, now=0.0)
        block.record_write(now=4.0)
        assert cell_age(block, 5.0) == pytest.approx(1.0)


class TestRefreshEngine:
    def make_engine(self, lr_ret=40 * US, hr_ret=40 * MS):
        lr = SetAssociativeCache(4 * KB, 2, 256)
        hr = SetAssociativeCache(16 * KB, 4, 256)
        engine = RefreshEngine(
            lr, hr,
            RetentionCounterSpec(4, lr_ret),
            RetentionCounterSpec(2, hr_ret),
        )
        return lr, hr, engine

    def test_not_due_immediately(self):
        _, _, engine = self.make_engine()
        assert not engine.due(0.0)

    def test_due_after_tick(self):
        _, _, engine = self.make_engine()
        assert engine.due(3 * US)

    def test_lr_refresh_scheduled_in_window(self):
        lr, _, engine = self.make_engine()
        lr.access(0x100, is_write=True, now=0.0)
        # sweep inside the refresh window (retention 40us, window from 35us)
        actions = engine.sweep(36 * US)
        assert actions.lr_refresh == [0x100]
        assert engine.stats.lr_refreshes == 1

    def test_lr_expiry_detected(self):
        lr, _, engine = self.make_engine()
        lr.access(0x100, is_write=True, now=0.0)
        actions = engine.sweep(50 * US)
        assert actions.lr_lost == [0x100]
        assert engine.stats.lr_expiries == 1

    def test_fresh_lr_block_untouched(self):
        lr, _, engine = self.make_engine()
        lr.access(0x100, is_write=True, now=0.0)
        actions = engine.sweep(5 * US)
        assert actions.lr_refresh == [] and actions.lr_lost == []

    def test_hr_dirty_expiry_writes_back(self):
        _, hr, engine = self.make_engine(hr_ret=1 * MS)
        hr.access(0x200, is_write=True, now=0.0)
        actions = engine.sweep(2 * MS)
        assert actions.hr_drop_dirty == [0x200]

    def test_hr_clean_expiry_invalidates(self):
        _, hr, engine = self.make_engine(hr_ret=1 * MS)
        hr.access(0x200, is_write=False, now=0.0)
        actions = engine.sweep(2 * MS)
        assert actions.hr_drop_clean == [0x200]

    def test_sweep_advances_schedule(self):
        _, _, engine = self.make_engine()
        engine.sweep(3 * US)
        assert not engine.due(4 * US)

    def test_invalid_blocks_ignored(self):
        lr, _, engine = self.make_engine()
        actions = engine.sweep(100 * US)
        assert actions.lr_refresh == [] and actions.lr_lost == []

    def test_last_actions_seam(self):
        """sweep() publishes its decisions for external observers."""
        lr, _, engine = self.make_engine()
        lr.access(0x100, is_write=True, now=0.0)
        actions = engine.sweep(36 * US)
        assert engine.last_actions is actions
        assert engine.last_actions.as_dict()["lr_refresh"] == [0x100]


class TestRefreshCadence:
    """Sweep rescheduling must stay on the tick grid (no phase drift)."""

    def make_engine(self, lr_bits=2, lr_ret=10 * US):
        # 2-bit LR counter: tick = lr_ret / 4, refresh window is the last
        # two ticks, i.e. ages in [lr_ret / 2, lr_ret)
        lr = SetAssociativeCache(4 * KB, 2, 256)
        hr = SetAssociativeCache(16 * KB, 4, 256)
        engine = RefreshEngine(
            lr, hr,
            RetentionCounterSpec(lr_bits, lr_ret),
            RetentionCounterSpec(2, 40 * MS),
        )
        return lr, engine

    def test_late_sweep_reschedules_on_grid(self):
        _, engine = self.make_engine()  # LR tick 2.5us
        engine.sweep(3 * US)  # 0.5us late
        assert engine._next_lr_scan == pytest.approx(5 * US)
        engine.sweep(5.1 * US)
        assert engine._next_lr_scan == pytest.approx(7.5 * US)

    def test_hr_reschedules_on_grid(self):
        _, engine = self.make_engine()  # HR tick 10ms
        engine.sweep(13 * MS)
        assert engine._next_hr_scan == pytest.approx(20 * MS)

    def test_sweep_on_grid_point_advances(self):
        """A sweep exactly on a grid point must not re-arm for the same time."""
        _, engine = self.make_engine()
        engine.sweep(2.5 * US)
        assert engine._next_lr_scan > 2.5 * US

    def test_skipped_window_expiry_regression(self):
        """Re-anchoring at call time let the refresh window be stepped over.

        Retention 10us, tick 2.5us, refresh window [5us, 10us).  With the
        pre-fix ``now + tick`` rescheduling, a sweep 0.9 ticks late
        (at 4.75us) re-armed for 7.25us, so a maintenance opportunity at
        7.0us — inside the refresh window — was skipped and the line
        silently expired at the next call (10.25us).  Grid rescheduling
        keeps 7.0us due and the line is refreshed in its window.
        """
        lr, engine = self.make_engine()
        lr.access(0x100, is_write=True, now=0.0)

        # late sweep, below the refresh window: no action either way
        assert engine.due(4.75 * US)
        actions = engine.sweep(4.75 * US)
        assert actions.lr_refresh == [] and actions.lr_lost == []

        # 7.0us is in the window; pre-fix code had re-armed for 7.25us
        # and skipped this opportunity entirely
        assert engine.due(7.0 * US)
        actions = engine.sweep(7.0 * US)
        assert actions.lr_refresh == [0x100]
        assert actions.lr_lost == []
        # apply the refresh the way the owning cache does: restart the clock
        block = lr.block_at(0x100)
        block.insert_time = 7.0 * US
        block.last_write_time = 7.0 * US

        # after the in-window refresh nothing expires at the next sweep
        actions = engine.sweep(10.25 * US)
        assert actions.lr_lost == []
        assert engine.stats.lr_expiries == 0
