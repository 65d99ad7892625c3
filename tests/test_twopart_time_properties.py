"""Property tests of the two-part L2 under irregular timing.

Hypothesis drives the cache with random address streams *and* random time
gaps (including gaps far beyond both retention windows), checking the
invariants that must survive expiry, refresh, and migration in any order,
on the object model and on the ``soa`` engine's flat model.  The ``soa``
fused loop relies on three of them: the parts are exclusive, every LR
line is dirty, and no resident line is ever at or past its retention.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TwoPartSTTL2
from repro.core.refresh import cell_age
from repro.engine.soa_l2 import SoaTwoPartL2
from repro.units import KB, MS, US

MODELS = pytest.mark.parametrize(
    "model", [TwoPartSTTL2, SoaTwoPartL2], ids=["object", "soa"]
)


def make_l2(model=TwoPartSTTL2):
    return model(
        hr_capacity_bytes=16 * KB,
        hr_associativity=4,
        lr_capacity_bytes=4 * KB,
        lr_associativity=2,
        lr_retention_s=40 * US,
        hr_retention_s=4 * MS,
    )


def resident_lines(array):
    """Line addresses of every valid block in ``array``."""
    rebuild = array.mapper.rebuild
    return {
        rebuild(block.tag, index)
        for index, _, block in array.iter_blocks() if block.valid
    }


access_step = st.tuples(
    st.integers(min_value=0, max_value=60),          # line id
    st.booleans(),                                   # write?
    st.sampled_from([1e-9, 1e-7, 1e-5, 5e-5, 1e-3, 1e-2]),  # gap (s)
)


@MODELS
class TestTimingProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(access_step, min_size=5, max_size=250))
    def test_no_duplicate_residency_under_any_timing(self, model, steps):
        l2 = make_l2(model)
        now = 0.0
        for lid, is_write, gap in steps:
            now += gap
            l2.access(lid * 256, is_write, now=now)
            assert not resident_lines(l2.lr_array) & resident_lines(l2.hr_array)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(access_step, min_size=5, max_size=250))
    def test_stats_balance_under_any_timing(self, model, steps):
        l2 = make_l2(model)
        now = 0.0
        for lid, is_write, gap in steps:
            now += gap
            l2.access(lid * 256, is_write, now=now)
        stats = l2.stats
        assert stats.accesses == len(steps)
        assert stats.read_hits <= stats.reads
        assert stats.write_hits <= stats.writes
        assert l2.energy.total_j >= 0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(access_step, min_size=5, max_size=250))
    def test_no_resident_block_is_expired(self, model, steps):
        """After every access, no resident block in either part is at or
        past its retention, and every LR block is dirty: time only moves
        forward, so the due sweeps alone keep both arrays clean, and a
        line enters LR only by a migrating write."""
        l2 = make_l2(model)
        parts = (
            (l2.lr_array, l2.lr_spec.retention_s),
            (l2.hr_array, l2.hr_spec.retention_s),
        )
        now = 0.0
        for lid, is_write, gap in steps:
            now += gap
            l2.access(lid * 256, is_write, now=now)
            for array, retention in parts:
                for _, _, block in array.iter_blocks():
                    if block.valid:
                        assert cell_age(block, now) < retention
                        assert block.dirty or array is l2.hr_array

    @settings(max_examples=20, deadline=None)
    @given(st.lists(access_step, min_size=5, max_size=150),
           st.integers(min_value=1, max_value=3))
    def test_monotonic_time_required_semantics(self, model, steps, reps):
        """Re-running the identical stream gives identical statistics
        (the architecture is deterministic)."""
        outcomes = []
        for _ in range(reps + 1):
            l2 = make_l2(model)
            now = 0.0
            for lid, is_write, gap in steps:
                now += gap
                l2.access(lid * 256, is_write, now=now)
            outcomes.append((
                l2.stats.hits, l2.migrations_to_lr, l2.refresh_writes,
                l2.data_losses, round(l2.energy.total_j, 18),
            ))
        assert len(set(outcomes)) == 1
