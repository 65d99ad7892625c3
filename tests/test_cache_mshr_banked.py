"""Tests for the MSHR file and the bank conflict model."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.banked import BankedCache
from repro.cache.mshr import MSHRFile
from repro.errors import ConfigurationError, SimulationError


class TestMSHR:
    def test_allocate_then_coalesce(self):
        mshr = MSHRFile(num_entries=4)
        assert mshr.register_miss(0x1000) == "allocated"
        assert mshr.register_miss(0x1000) == "coalesced"
        assert mshr.stats.allocations == 1
        assert mshr.stats.coalesced == 1

    def test_full_file_stalls(self):
        mshr = MSHRFile(num_entries=2)
        mshr.register_miss(0x1000)
        mshr.register_miss(0x2000)
        assert mshr.register_miss(0x3000) == "stall"
        assert mshr.stats.stalls == 1

    def test_merge_limit_stalls(self):
        mshr = MSHRFile(num_entries=4, max_merged=2)
        mshr.register_miss(0x1000)
        mshr.register_miss(0x1000)
        assert mshr.register_miss(0x1000) == "stall"

    def test_complete_returns_merged_count(self):
        mshr = MSHRFile(num_entries=4)
        mshr.register_miss(0x1000)
        mshr.register_miss(0x1000)
        assert mshr.complete(0x1000) == 2
        assert 0x1000 not in mshr._entries

    def test_complete_unknown_raises(self):
        mshr = MSHRFile(num_entries=4)
        with pytest.raises(SimulationError):
            mshr.complete(0x9000)

    def test_completion_frees_entry(self):
        mshr = MSHRFile(num_entries=1)
        mshr.register_miss(0x1000)
        mshr.complete(0x1000)
        assert mshr.register_miss(0x2000) == "allocated"

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            MSHRFile(num_entries=0)
        with pytest.raises(ConfigurationError):
            MSHRFile(num_entries=4, max_merged=0)

    @given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=100))
    def test_occupancy_bounded(self, lines):
        mshr = MSHRFile(num_entries=4)
        for lid in lines:
            mshr.register_miss(lid * 256)
        assert 0 <= len(mshr._entries) <= 4


class TestBankedCache:
    def test_no_conflict_when_idle(self):
        banks = BankedCache(num_banks=8, line_size=256)
        wait = banks.schedule(0x0000, now=0.0, service_time=10e-9)
        assert wait == 0.0

    def test_back_to_back_same_bank_conflicts(self):
        banks = BankedCache(num_banks=8, line_size=256)
        banks.schedule(0x0000, now=0.0, service_time=10e-9)
        wait = banks.schedule(0x0000, now=0.0, service_time=10e-9)
        assert wait == pytest.approx(10e-9)
        assert banks.stats.conflicts == 1

    def test_different_banks_independent(self):
        banks = BankedCache(num_banks=8, line_size=256)
        banks.schedule(0 * 256, now=0.0, service_time=10e-9)
        wait = banks.schedule(1 * 256, now=0.0, service_time=10e-9)
        assert wait == 0.0

    def test_wait_decreases_as_time_passes(self):
        banks = BankedCache(num_banks=4, line_size=256)
        banks.schedule(0x0000, now=0.0, service_time=10e-9)
        wait = banks.schedule(0x0000, now=6e-9, service_time=10e-9)
        assert wait == pytest.approx(4e-9)

    def test_utilization(self):
        banks = BankedCache(num_banks=2, line_size=256)
        banks.schedule(0 * 256, now=0.0, service_time=5e-9)
        banks.schedule(1 * 256, now=0.0, service_time=5e-9)
        assert banks.utilization(10e-9) == pytest.approx(0.5)

    def test_negative_service_rejected(self):
        banks = BankedCache(num_banks=2, line_size=256)
        with pytest.raises(ConfigurationError):
            banks.schedule(0, now=0.0, service_time=-1.0)

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                              st.floats(min_value=0, max_value=1e-6)),
                    min_size=1, max_size=100))
    def test_busy_until_monotone_per_bank(self, requests):
        """A bank's busy-until never decreases as requests arrive in time order."""
        banks = BankedCache(num_banks=4, line_size=256)
        now = 0.0
        last = {}
        for lid, dt in requests:
            now += dt
            addr = lid * 256
            bank = banks.bank_for(addr)
            banks.schedule(addr, now=now, service_time=5e-9)
            busy = banks._busy_until[bank]
            assert busy >= last.get(bank, 0.0)
            last[bank] = busy
