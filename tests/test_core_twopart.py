"""Tests for the two-part STT-RAM L2 — the paper's contribution."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import config_c1
from repro.core import TwoPartSTTL2, UniformL2, build_l2
from repro.errors import ConfigurationError
from repro.units import KB, US


def make_small_l2(**kwargs):
    """A small two-part L2 for fast tests: 32KB HR 4-way + 8KB LR 2-way."""
    defaults = dict(
        hr_capacity_bytes=32 * KB,
        hr_associativity=4,
        lr_capacity_bytes=8 * KB,
        lr_associativity=2,
        line_size=256,
        track_intervals=True,
    )
    defaults.update(kwargs)
    return TwoPartSTTL2(**defaults)


class TestBasicProtocol:
    def test_miss_fills_hr(self):
        l2 = make_small_l2()
        result = l2.access(0x1000, is_write=False, now=1e-9)
        assert not result.hit and result.dram_fetch
        assert l2.hr_array.probe(0x1000)
        assert not l2.lr_array.probe(0x1000)

    def test_read_hit_in_hr(self):
        l2 = make_small_l2()
        l2.access(0x1000, is_write=False, now=1e-9)
        result = l2.access(0x1000, is_write=False, now=2e-9)
        assert result.hit and result.part == "hr"

    def test_first_write_stays_in_hr(self):
        """Single write traffic goes to HR (paper's energy discussion)."""
        l2 = make_small_l2()
        l2.access(0x1000, is_write=False, now=1e-9)  # read fill
        result = l2.access(0x1000, is_write=True, now=2e-9)
        assert result.hit and result.part == "hr" and not result.migrated
        assert l2.hr_array.probe(0x1000)

    def test_second_write_migrates_to_lr(self):
        """Threshold 1: the first *re*write moves the block to LR."""
        l2 = make_small_l2()
        l2.access(0x1000, is_write=False, now=1e-9)
        l2.access(0x1000, is_write=True, now=2e-9)
        result = l2.access(0x1000, is_write=True, now=3e-9)
        assert result.migrated and result.part == "lr"
        assert l2.lr_array.probe(0x1000)
        assert not l2.hr_array.probe(0x1000)
        assert l2.migrations_to_lr == 1

    def test_write_miss_allocates_dirty_in_hr(self):
        l2 = make_small_l2()
        result = l2.access(0x2000, is_write=True, now=1e-9)
        assert not result.hit and result.dram_fetch
        block = l2.hr_array.block_at(0x2000)
        assert block is not None and block.dirty and block.write_count == 1

    def test_write_miss_then_write_hit_migrates(self):
        """A write-allocated block counts its fill write toward the threshold."""
        l2 = make_small_l2()
        l2.access(0x2000, is_write=True, now=1e-9)
        result = l2.access(0x2000, is_write=True, now=2e-9)
        assert result.migrated
        assert l2.lr_array.probe(0x2000)

    def test_lr_hit_serves_reads_too(self):
        l2 = make_small_l2()
        l2.access(0x1000, is_write=True, now=1e-9)
        l2.access(0x1000, is_write=True, now=2e-9)  # migrate
        result = l2.access(0x1000, is_write=False, now=3e-9)
        assert result.hit and result.part == "lr"

    def test_line_never_in_both_parts(self):
        l2 = make_small_l2()
        addr = 0x3000
        for i in range(6):
            l2.access(addr, is_write=(i % 2 == 0), now=(i + 1) * 1e-9)
            in_lr = l2.lr_array.probe(addr)
            in_hr = l2.hr_array.probe(addr)
            assert not (in_lr and in_hr)


class TestLREvictionReturnsToHR:
    def test_lr_victim_returns_to_hr(self):
        # LR: 8KB 2-way 256B -> 16 sets, 32 lines. Flood one LR set.
        l2 = make_small_l2()
        lr_sets = l2.lr_array.num_sets
        conflicting = [0x10000 + i * lr_sets * 256 for i in range(3)]
        now = 1e-9
        for addr in conflicting:
            l2.access(addr, is_write=True, now=now)  # fill HR dirty
            now += 1e-9
            l2.access(addr, is_write=True, now=now)  # migrate to LR
            now += 1e-9
        # LR set holds 2; the first migrated line must be back in HR
        assert l2.returns_to_hr >= 1
        locations = [
            l2.lr_array.probe(a) or l2.hr_array.probe(a) for a in conflicting
        ]
        assert all(locations), "no line may be lost during LR eviction"

    def test_write_share_tilts_to_lr_for_hot_writes(self):
        """Hot rewrites must be absorbed by the LR part."""
        l2 = make_small_l2()
        now = 0.0
        for i in range(200):
            now += 1e-9
            l2.access(0x5000, is_write=True, now=now)
        assert l2.lr_write_share > 0.9

    def test_buffer_overflow_writeback_counted_once(self):
        """Regression: an LR->HR buffer overflow used to be double-counted.

        ``_buffer_push`` already adds the forced dirty pop to
        ``dram_writebacks_total``; ``_return_to_hr`` then added its summed
        ``writebacks`` (which includes that overflow) a second time.
        """
        l2 = make_small_l2(buffer_lines=1)
        # occupy the single lr->hr slot with a dirty in-flight entry
        assert l2._buffer_push(l2.lr_to_hr, 0x30000, dirty=True, now=1e-9) == 0
        before = l2.dram_writebacks_total
        # returning another victim overflows the buffer (one forced
        # write-back) and fills an empty HR set (no dirty eviction)
        writebacks = l2._return_to_hr(0x40000, victim_dirty=True, now=2e-9)
        assert writebacks == 1
        assert l2.dram_writebacks_total == before + 1


class TestRetentionBehaviour:
    def test_lr_block_expires_without_refresh(self):
        # disable sweeps by setting scan times far ahead via huge time jump
        l2 = make_small_l2(lr_retention_s=40 * US)
        l2.access(0x1000, is_write=True, now=1e-9)
        l2.access(0x1000, is_write=True, now=2e-9)  # to LR
        assert l2.lr_array.probe(0x1000)
        # jump far past retention; sweep sees it as expired or the access
        # path invalidates it -> miss
        result = l2.access(0x1000, is_write=False, now=1.0)
        assert not result.hit

    def test_refresh_keeps_block_alive(self):
        l2 = make_small_l2(lr_retention_s=40 * US)
        l2.access(0x1000, is_write=True, now=1e-9)
        l2.access(0x1000, is_write=True, now=2e-9)  # to LR
        # touch the cache every tick so maintenance sweeps run
        now = 2e-9
        for _ in range(100):
            now += 2.0 * US
            l2.access(0x9000, is_write=False, now=now)
        assert l2.refresh_writes > 0
        result = l2.access(0x1000, is_write=False, now=now + 1e-9)
        assert result.hit, "refresh must keep the LR block alive"

    def test_hr_expiry_writeback_dirty(self):
        l2 = make_small_l2(hr_retention_s=1e-3)
        l2.access(0x1000, is_write=True, now=1e-9)  # dirty in HR
        # advance past HR retention with activity so the sweep runs
        before = l2.dram_writebacks_total
        l2.access(0x9000, is_write=False, now=2e-3)
        assert l2.refresh_engine.stats.hr_expirations_dirty >= 1
        assert l2.dram_writebacks_total > before
        assert not l2.hr_array.probe(0x1000)

    def test_hr_expiry_clean_invalidate(self):
        l2 = make_small_l2(hr_retention_s=1e-3)
        l2.access(0x1000, is_write=False, now=1e-9)  # clean in HR
        l2.access(0x9000, is_write=False, now=2e-3)
        assert l2.refresh_engine.stats.hr_expirations_clean >= 1
        assert not l2.hr_array.probe(0x1000)

    def test_rejects_inverted_retentions(self):
        with pytest.raises(ConfigurationError):
            make_small_l2(hr_retention_s=1e-6, lr_retention_s=1e-3)


class TestSearchIntegration:
    def test_write_to_lr_needs_one_probe(self):
        l2 = make_small_l2()
        l2.access(0x1000, is_write=True, now=1e-9)
        l2.access(0x1000, is_write=True, now=2e-9)  # now in LR
        result = l2.access(0x1000, is_write=True, now=3e-9)
        assert result.probes == 1

    def test_read_to_hr_needs_one_probe(self):
        l2 = make_small_l2()
        l2.access(0x1000, is_write=False, now=1e-9)
        result = l2.access(0x1000, is_write=False, now=2e-9)
        assert result.probes == 1

    def test_miss_needs_two_probes(self):
        l2 = make_small_l2()
        result = l2.access(0x1000, is_write=False, now=1e-9)
        assert result.probes == 2

    def test_parallel_search_always_two_probes(self):
        l2 = make_small_l2(sequential_search=False)
        l2.access(0x1000, is_write=False, now=1e-9)
        result = l2.access(0x1000, is_write=False, now=2e-9)
        assert result.probes == 2


class TestIntervalTracking:
    def test_rewrite_intervals_recorded(self):
        l2 = make_small_l2()
        l2.access(0x1000, is_write=True, now=1e-9)
        l2.access(0x1000, is_write=True, now=2e-9)   # migrate (LR write)
        l2.access(0x1000, is_write=True, now=5e-9)   # LR rewrite: interval 3ns
        assert len(l2.rewrite_intervals) == 1
        assert l2.rewrite_intervals[0] == pytest.approx(3e-9)

    def test_tracking_disabled(self):
        l2 = make_small_l2(track_intervals=False)
        for i in range(5):
            l2.access(0x1000, is_write=True, now=(i + 1) * 1e-9)
        assert l2.rewrite_intervals == []


class TestEnergyAccounting:
    def test_migration_energy_separated(self):
        l2 = make_small_l2()
        l2.access(0x1000, is_write=True, now=1e-9)
        assert l2.energy.migration_j == 0.0
        l2.access(0x1000, is_write=True, now=2e-9)  # migration
        assert l2.energy.migration_j > 0.0

    def test_lr_write_cheaper_than_hr_write(self):
        l2 = make_small_l2()
        assert (
            l2.lr_model.data_write_energy < l2.hr_model.data_write_energy
        )

    def test_total_energy_is_sum_of_buckets(self):
        l2 = make_small_l2()
        for i in range(20):
            l2.access(i * 256, is_write=(i % 3 == 0), now=(i + 1) * 1e-9)
        ledger = l2.energy
        assert ledger.total_j == pytest.approx(
            ledger.demand_j + ledger.migration_j + ledger.refresh_j + ledger.fill_j
        )

    def test_leakage_and_area_positive(self):
        l2 = make_small_l2()
        assert l2.leakage_power > 0
        assert l2.area > 0


class TestStatsConsistency:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=200),
                              st.booleans()),
                    min_size=10, max_size=400))
    def test_no_line_lost_or_duplicated(self, ops):
        """Property: every line is in at most one part; stats balance."""
        l2 = make_small_l2()
        now = 0.0
        touched = set()
        for lid, is_write in ops:
            now += 1e-9
            addr = lid * 256
            touched.add(addr)
            l2.access(addr, is_write, now=now)
            assert not (l2.lr_array.probe(addr) and l2.hr_array.probe(addr))
        stats = l2.stats
        assert stats.accesses == len(ops)
        assert stats.read_hits <= stats.reads
        assert stats.write_hits <= stats.writes

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=20, max_size=300))
    def test_hot_write_line_ends_in_lr(self, lids):
        """Any line written >= 2 times in a row must be LR-resident after."""
        l2 = make_small_l2()
        now = 0.0
        for lid in lids:
            now += 1e-9
            l2.access(lid * 256, is_write=True, now=now)
        # last line written twice at the end is surely in LR
        now += 1e-9
        l2.access(0x0, is_write=True, now=now)
        now += 1e-9
        result = l2.access(0x0, is_write=True, now=now)
        assert result.part == "lr"


class TestFactory:
    def test_c1_geometry(self):
        l2 = build_l2(config_c1().l2)
        assert isinstance(l2, TwoPartSTTL2)
        assert l2.hr_array.capacity_bytes == 1344 * KB
        assert l2.lr_array.capacity_bytes == 192 * KB
        assert l2.hr_array.associativity == 7
        assert l2.lr_array.associativity == 2

    def test_build_uniform_kinds(self):
        from repro.config import baseline_sram, baseline_stt
        sram = build_l2(baseline_sram().l2)
        stt = build_l2(baseline_stt().l2)
        assert isinstance(sram, UniformL2) and sram.technology == "sram"
        assert isinstance(stt, UniformL2) and stt.technology == "stt"

    def test_area_premise_c1_close_to_sram(self):
        """C1 must fit in roughly the SRAM baseline's area (the premise)."""
        from repro.config import baseline_sram
        c1 = build_l2(config_c1().l2)
        sram = build_l2(baseline_sram().l2)
        assert c1.area <= sram.area * 1.15
