"""Tests for the fill_from_dram paths of every L2 implementation."""

import pytest

from repro.core import RelaxedUniformL2, TwoPartSTTL2, UniformL2
from repro.engine.soa_l2 import SoaTwoPartL2
from repro.shard import ShardedL2Router
from repro.units import KB


@pytest.fixture(params=["sram", "stt", "relaxed", "twopart", "router1", "router2"])
def l2(request):
    if request.param == "sram":
        return UniformL2(16 * KB, 4, 256, technology="sram")
    if request.param == "stt":
        return UniformL2(16 * KB, 4, 256, technology="stt")
    if request.param == "relaxed":
        return RelaxedUniformL2(16 * KB, 4, 256)
    if request.param.startswith("router"):
        shards = int(request.param[-1])
        return ShardedL2Router(
            [SoaTwoPartL2(16 * KB, 4, 4 * KB, 2) for _ in range(shards)],
            line_size=256,
        )
    return TwoPartSTTL2(16 * KB, 4, 4 * KB, 2)


def parts(l2):
    """The L2 instances behind ``l2``: a router's shards, else ``l2``."""
    return l2.banks if isinstance(l2, ShardedL2Router) else [l2]


def energy_j(l2):
    return sum(part.energy.total_j for part in parts(l2))


class TestFillFromDram:
    def test_fill_installs_line(self, l2):
        l2.fill_from_dram(0x4000, now=1e-9)
        assert l2.access(0x4000, is_write=False, now=2e-9).hit

    def test_dirty_fill_counts_writeback_debt(self, l2):
        l2.fill_from_dram(0x4000, now=1e-9, dirty=True)
        assert l2.dirty_lines() == 1

    def test_fill_charges_energy(self, l2):
        before = energy_j(l2)
        result = l2.fill_from_dram(0x5000, now=1e-9)
        assert result.energy_j > 0
        assert energy_j(l2) > before

    def test_refill_of_present_line_is_idempotent(self, l2):
        l2.fill_from_dram(0x4000, now=1e-9)
        result = l2.fill_from_dram(0x4000, now=2e-9)
        assert result.hit
        # no duplicate: still exactly one resident copy
        assert l2.access(0x4000, is_write=False, now=3e-9).hit

    def test_fill_does_not_count_demand_stats(self, l2):
        l2.fill_from_dram(0x4000, now=1e-9)
        assert sum(part.stats.accesses for part in parts(l2)) == 0

    def test_conflict_fill_reports_writeback(self, l2):
        # make one set of one shard overflow with dirty fills
        shard = parts(l2)[0]
        if isinstance(shard, TwoPartSTTL2):
            sets = shard.hr_array.num_sets
            ways = shard.hr_array.associativity
        else:
            sets = shard.array.num_sets
            ways = shard.array.associativity
        stride = sets * len(parts(l2)) * 256
        writebacks = 0
        for i in range(ways + 1):
            result = l2.fill_from_dram(0x100000 + i * stride, now=(i + 1) * 1e-9,
                                       dirty=True)
            writebacks += result.dram_writebacks
        assert writebacks == 1
