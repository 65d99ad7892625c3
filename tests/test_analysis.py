"""Tests for the characterization analyses (COV, WWS, rewrite intervals)."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.cov import write_variation
from repro.analysis.intervals import (
    REWRITE_BUCKETS,
    rewrite_interval_distribution,
    snap_threshold,
)
from repro.analysis.tables import format_table
from repro.analysis.wws import weighted_wws_fraction, write_working_set
from repro.cache.array import SetAssociativeCache
from repro.errors import AnalysisError
from repro.units import KB, MS, US
from repro.workloads.trace import FLAG_WRITE, Trace


class TestWriteVariation:
    def make_cache(self):
        return SetAssociativeCache(4 * KB, 2, 256)  # 8 sets x 2 ways

    def test_uniform_writes_low_cov(self):
        cache = self.make_cache()
        for line in range(16):
            cache.access(line * 256, is_write=True)
        variation = write_variation(cache)
        assert variation.inter_set_cov == pytest.approx(0.0)

    def test_skewed_writes_high_cov(self):
        cache = self.make_cache()
        for _ in range(100):
            cache.access(0x0, is_write=True)
        cache.access(0x100, is_write=True)
        variation = write_variation(cache)
        assert variation.inter_set_cov > 1.0

    def test_no_writes_raises(self):
        cache = self.make_cache()
        cache.access(0x0, is_write=False)
        with pytest.raises(AnalysisError):
            write_variation(cache)

    def test_intra_set_variation(self):
        cache = self.make_cache()
        # two lines in the same set, one written far more often
        for _ in range(99):
            cache.access(0x0, is_write=True)
        cache.access(0x0 + 8 * 256, is_write=True)  # same set, other way
        variation = write_variation(cache)
        assert variation.intra_set_cov > 0.9

    def test_percent_rendering(self):
        cache = self.make_cache()
        for _ in range(10):
            cache.access(0x0, is_write=True)
        pct = write_variation(cache).as_percentages()
        assert pct["inter_set_pct"] == pytest.approx(
            write_variation(cache).inter_set_cov * 100
        )

    def test_total_writes_counted(self):
        cache = self.make_cache()
        for i in range(7):
            cache.access(i * 256, is_write=True)
        assert write_variation(cache).total_writes == 7


class TestWWS:
    def make_trace(self, writes_mask, lines):
        n = len(lines)
        flags = np.where(np.asarray(writes_mask), FLAG_WRITE, 0).astype(np.uint8)
        return Trace(
            np.zeros(n, dtype=np.int16),
            np.asarray(lines, dtype=np.int64) * 256,
            flags,
        )

    def test_window_partitioning(self):
        trace = self.make_trace([True] * 10, list(range(10)))
        windows = write_working_set(trace, window=4)
        assert [w.start_index for w in windows] == [0, 4, 8]

    def test_distinct_written_lines(self):
        trace = self.make_trace([True, True, False, True], [1, 1, 2, 3])
        windows = write_working_set(trace, window=4)
        assert windows[0].distinct_written_lines == 2  # lines 1 and 3
        assert windows[0].distinct_touched_lines == 3

    def test_wws_fraction(self):
        trace = self.make_trace([True, False], [1, 2])
        window = write_working_set(trace, window=2)[0]
        assert window.wws_fraction == pytest.approx(0.5)

    def test_small_wws_for_generated_workload(self):
        """The paper's observation: the WWS per window is small."""
        from repro.workloads import build_workload

        wl = build_workload("bfs", num_accesses=8000, seed=0)
        windows = write_working_set(wl.trace, window=2000)
        for window in windows:
            assert window.wws_fraction < 0.6

    def test_rejects_bad_window(self):
        trace = self.make_trace([True], [0])
        with pytest.raises(AnalysisError):
            write_working_set(trace, window=0)

    def test_window_sizes_recorded(self):
        trace = self.make_trace([True] * 10, list(range(10)))
        windows = write_working_set(trace, window=4)
        assert [w.size for w in windows] == [4, 4, 2]

    def test_partial_tail_weighting(self):
        # first window: 4 accesses, all written (fraction 1.0);
        # tail window: 1 access, read only (fraction 0.0)
        trace = self.make_trace(
            [True, True, True, True, False], [0, 1, 2, 3, 4]
        )
        windows = write_working_set(trace, window=4)
        assert [w.size for w in windows] == [4, 1]
        naive = sum(w.wws_fraction for w in windows) / len(windows)
        weighted = weighted_wws_fraction(windows)
        assert naive == pytest.approx(0.5)
        assert weighted == pytest.approx(4 / 5)  # tail weighs 1/5, not 1/2

    def test_weighted_fraction_empty(self):
        assert weighted_wws_fraction([]) == 0.0

    @given(
        st.lists(st.booleans(), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=16),
    )
    def test_window_sizes_partition_trace(self, writes, window):
        """Window sizes always sum to the trace length, tail included."""
        trace = self.make_trace(writes, list(range(len(writes))))
        windows = write_working_set(trace, window=window)
        assert sum(w.size for w in windows) == len(writes)
        assert all(0 < w.size <= window for w in windows)
        if len(writes) % window:
            assert windows[-1].size == len(writes) % window


class TestRewriteIntervals:
    def test_bucketing(self):
        dist = rewrite_interval_distribution(
            [0.5 * US, 3 * US, 8 * US, 0.5 * MS, 2 * MS, 10 * MS]
        )
        assert dist.counts["<=1us"] == 1
        assert dist.counts["<=5us"] == 1
        assert dist.counts["<=10us"] == 1
        assert dist.counts["<=1ms"] == 1
        assert dist.counts["<=2.5ms"] == 1
        assert dist.counts[">2.5ms"] == 1

    def test_fractions_sum_to_one(self):
        dist = rewrite_interval_distribution([1e-6, 2e-6, 3e-3])
        assert sum(dist.fractions().values()) == pytest.approx(1.0)

    def test_empty_distribution(self):
        dist = rewrite_interval_distribution([])
        assert dist.total == 0
        assert all(v == 0.0 for v in dist.fractions().values())

    def test_fraction_under(self):
        dist = rewrite_interval_distribution([0.5 * US, 2 * US, 5 * MS])
        # 10 * US is one ulp below the exact 1e-5 edge; the documented
        # contract snaps it onto the edge instead of dropping buckets
        assert dist.fraction_under(10 * US) == pytest.approx(2 / 3)
        assert dist.fraction_under(1e-5) == pytest.approx(2 / 3)

    def test_fraction_under_rejects_off_edge_threshold(self):
        dist = rewrite_interval_distribution([0.5 * US, 2 * US])
        for off_edge in (7e-6, 2e-3, 0.5e-6, 0.0):
            with pytest.raises(AnalysisError):
                dist.fraction_under(off_edge)

    def test_fraction_under_inf_covers_everything(self):
        dist = rewrite_interval_distribution([0.5 * US, 5 * MS])
        assert dist.fraction_under(float("inf")) == pytest.approx(1.0)

    def test_fraction_under_empty_still_validates_threshold(self):
        dist = rewrite_interval_distribution([])
        assert dist.fraction_under(1e-5) == 0.0
        with pytest.raises(AnalysisError):
            dist.fraction_under(7e-6)

    def test_snap_threshold_absorbs_computed_bounds(self):
        assert snap_threshold(5 * US) == 5e-6
        assert snap_threshold(10 * US) == 1e-5
        assert snap_threshold(2.5 * MS) == 2.5e-3
        assert snap_threshold(float("inf")) == float("inf")
        with pytest.raises(AnalysisError):
            snap_threshold(7e-6)

    def test_exact_edges_classify_into_paper_bin(self):
        """Regression: the bounds are exact literals, so an interval of
        exactly 1 us / 5 us / 10 us / 1 ms / 2.5 ms lands in its own bin,
        not the next-larger one (10 * US-style computed bounds were one
        ulp below the edge)."""
        edges = [bound for _, bound in REWRITE_BUCKETS[:-1]]
        assert edges == [1e-6, 5e-6, 1e-5, 1e-3, 2.5e-3]
        dist = rewrite_interval_distribution(edges)
        for (label, _), _edge in zip(REWRITE_BUCKETS[:-1], edges):
            assert dist.counts[label] == 1, label
        assert dist.counts[">2.5ms"] == 0

    def test_10us_literal_is_under_10us(self):
        """The acceptance-criteria case: exactly 10e-6 s is <=10us."""
        assert 10e-6 == 1e-5  # the literal parses onto the edge
        dist = rewrite_interval_distribution([10e-6])
        assert dist.counts["<=10us"] == 1
        assert dist.fraction_under(10e-6) == 1.0

    @pytest.mark.parametrize("edge_index", range(len(REWRITE_BUCKETS) - 1))
    def test_one_ulp_around_every_edge(self, edge_index):
        """An interval one ulp below/at an edge is inside the bucket; one
        ulp above is in the next bucket."""
        label, edge = REWRITE_BUCKETS[edge_index]
        below = math.nextafter(edge, 0.0)
        above = math.nextafter(edge, math.inf)
        dist = rewrite_interval_distribution([below, edge, above])
        assert dist.counts[label] == 2, label
        next_label = REWRITE_BUCKETS[edge_index + 1][0]
        assert dist.counts[next_label] == 1, next_label

    @given(
        st.integers(min_value=0, max_value=len(REWRITE_BUCKETS) - 2),
        st.integers(min_value=-1, max_value=1),
    )
    def test_ulp_perturbed_edges_classify_consistently(self, edge_index, ulps):
        """Property: for any edge and any interval within one ulp of it,
        classification matches the inclusive ``interval <= bound`` rule
        applied to exact arithmetic."""
        label, edge = REWRITE_BUCKETS[edge_index]
        interval = edge
        if ulps < 0:
            interval = math.nextafter(edge, 0.0)
        elif ulps > 0:
            interval = math.nextafter(edge, math.inf)
        dist = rewrite_interval_distribution([interval])
        expected = label if interval <= edge else REWRITE_BUCKETS[edge_index + 1][0]
        assert dist.counts[expected] == 1

    def test_rejects_negative(self):
        with pytest.raises(AnalysisError):
            rewrite_interval_distribution([-1.0])

    @given(st.lists(st.floats(min_value=0, max_value=1.0), max_size=50))
    def test_total_matches_input(self, intervals):
        dist = rewrite_interval_distribution(intervals)
        assert dist.total == len(intervals)
        assert sum(dist.counts.values()) == len(intervals)

    def test_bucket_bounds_ordered(self):
        bounds = [b for _, b in REWRITE_BUCKETS]
        assert bounds == sorted(bounds)


class TestTables:
    def test_format_table_aligns(self):
        table = format_table(["a", "bb"], [[1, 2.5], [30, 4.123456]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "4.123" in table

    def test_format_table_empty_rows(self):
        table = format_table(["x"], [])
        assert "x" in table
