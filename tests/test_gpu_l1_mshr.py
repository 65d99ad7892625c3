"""Tests for the L1's deferred fills (its MSHR model)."""

from repro.config import L1Config
from repro.gpu.l1 import GPUL1Cache, L2Request


def make_l1(**kwargs):
    return GPUL1Cache(L1Config(), **kwargs)


class TestDeferredFills:
    def test_miss_issues_fetch_without_filling(self):
        l1 = make_l1()
        requests = l1.access(0x1000, False, False, now=0.0)
        assert requests == [L2Request("fetch", 0x1000)]
        assert not l1.array.probe(0x1000), "line must not land before the fetch"

    def test_fill_lands_after_completion(self):
        l1 = make_l1()
        l1.access(0x1000, False, False, now=0.0)
        l1.complete_fetch(0x1000, ready_time=100e-9)
        # before the data arrives: still a miss
        l1.access(0x1000, False, False, now=50e-9)
        assert not l1.array.probe(0x1000)
        # after: the drain installs the line
        l1.access(0x2000, False, False, now=200e-9)
        assert l1.array.probe(0x1000)

    def test_secondary_miss_coalesces(self):
        l1 = make_l1()
        first = l1.access(0x1000, False, False, now=0.0)
        l1.complete_fetch(0x1000, ready_time=100e-9)
        second = l1.access(0x1000, False, False, now=10e-9)
        assert first == [L2Request("fetch", 0x1000)]
        assert second == [], "in-flight line must not refetch"
        assert l1.gpu_stats.coalesced_misses == 1

    def test_hit_after_landing(self):
        l1 = make_l1()
        l1.access(0x1000, False, False, now=0.0)
        l1.complete_fetch(0x1000, ready_time=10e-9)
        requests = l1.access(0x1000, False, False, now=20e-9)
        assert requests == []
        assert l1.array.probe(0x1000)

    def test_local_write_miss_fills_dirty(self):
        l1 = make_l1()
        l1.access(0x3000, True, True, now=0.0)
        l1.complete_fetch(0x3000, ready_time=10e-9)
        l1.access(0x9000, False, False, now=20e-9)  # trigger drain
        block = l1.array.block_at(0x3000)
        assert block is not None and block.dirty

    def test_coalesced_write_merges_dirty_intent(self):
        l1 = make_l1()
        l1.access(0x3000, False, True, now=0.0)       # local read miss
        l1.access(0x3000, True, True, now=1e-9)       # local write, in flight
        l1.complete_fetch(0x3000, ready_time=10e-9)
        l1.access(0x9000, False, False, now=20e-9)
        block = l1.array.block_at(0x3000)
        assert block is not None and block.dirty

    def test_global_write_cancels_pending_fill(self):
        """A written-through store must not be overwritten by a stale fill."""
        l1 = make_l1()
        l1.access(0x1000, False, False, now=0.0)      # fetch in flight
        l1.access(0x1000, True, False, now=1e-9)      # write-through
        l1.complete_fetch(0x1000, ready_time=10e-9)   # ignored (cancelled)
        l1.access(0x9000, False, False, now=20e-9)
        assert not l1.array.probe(0x1000)

    def test_mshr_stall_issues_uncached_fetch(self):
        l1 = make_l1(mshr_entries=1)
        l1.access(0x1000, False, False, now=0.0)
        requests = l1.access(0x2000, False, False, now=1e-9)
        assert requests == [L2Request("fetch", 0x2000)]
        assert l1.gpu_stats.mshr_stalls == 1
        # the uncached fetch fills nothing even if "completed"
        l1.complete_fetch(0x2000, ready_time=2e-9)
        l1.access(0x9000, False, False, now=10e-9)
        assert not l1.array.probe(0x2000)

    def test_drain_eviction_writes_back(self):
        l1 = make_l1()
        sets = l1.array.num_sets
        line = l1.config.line_size
        conflicting = [0x100000 + i * sets * line
                       for i in range(l1.config.associativity + 1)]
        now = 0.0
        for addr in conflicting:
            now += 1e-9
            l1.access(addr, True, True, now=now)
            l1.complete_fetch(addr, ready_time=now)
        now += 1e-9
        requests = l1.access(0x9000, False, False, now=now)
        writebacks = [r for r in requests if r.kind == "writeback"]
        assert writebacks == [L2Request("writeback", conflicting[0])]

    def test_mshr_occupancy_returns_to_zero(self):
        l1 = make_l1()
        for i in range(4):
            l1.access(0x1000 + i * 128, False, False, now=float(i) * 1e-9)
            l1.complete_fetch(0x1000 + i * 128, ready_time=float(i) * 1e-9)
        l1.access(0x9000, False, False, now=1.0)
        # only the last access (0x9000) can still be outstanding
        assert len(l1.mshr._entries) <= 1
