"""Tests for trace containers, patterns, profiles and the generator."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, TraceError
from repro.workloads import (
    PROFILES,
    TraceGenerator,
    build_workload,
    get_profile,
    suite_names,
)
from repro.workloads.generator import ACCESS_GRANULARITY
from repro.workloads.patterns import (
    HotSegment,
    LocalSegment,
    PhasedWriteSegment,
    StreamingSegment,
    zipf_pmf,
)
from repro.workloads.trace import FLAG_LOCAL, FLAG_WRITE, Trace
from tests.pinned import TRACE_DIGESTS


def trace_digest(trace: Trace) -> str:
    """SHA-256 over the ``sm``, ``address`` and ``flags`` column bytes."""
    digest = hashlib.sha256()
    for column in (trace.sm, trace.address, trace.flags):
        digest.update(column.tobytes())
    return digest.hexdigest()


def moved_trace_digests(keys=tuple(TRACE_DIGESTS)) -> list:
    """Those of ``keys`` whose :data:`TRACE_DIGESTS` trace generates
    differently."""
    moved = []
    for key in keys:
        expected = TRACE_DIGESTS[key]
        name, length, seed = key.split("/")
        workload = build_workload(name, num_accesses=int(length), seed=int(seed[1:]))
        if trace_digest(workload.trace) != expected:
            moved.append(key)
    return moved


class TestZipf:
    def test_normalized(self):
        assert zipf_pmf(100, 0.8).sum() == pytest.approx(1.0)

    def test_alpha_zero_uniform(self):
        pmf = zipf_pmf(10, 0.0)
        assert np.allclose(pmf, 0.1)

    def test_skew_increases_with_alpha(self):
        flat = zipf_pmf(100, 0.2)
        skewed = zipf_pmf(100, 1.5)
        assert skewed[0] > flat[0]

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            zipf_pmf(0, 1.0)
        with pytest.raises(ConfigurationError):
            zipf_pmf(10, -1.0)


class TestSegments:
    def test_streaming_sequential(self):
        rng = np.random.default_rng(0)
        seg = StreamingSegment(100)
        lines = seg.draw(rng, 10)
        assert lines.tolist() == list(range(10))

    def test_streaming_wraps(self):
        rng = np.random.default_rng(0)
        seg = StreamingSegment(8)
        seg.draw(rng, 6)
        lines = seg.draw(rng, 4)
        assert lines.tolist() == [6, 7, 0, 1]

    def test_hot_segment_in_range(self):
        rng = np.random.default_rng(0)
        seg = HotSegment(64, alpha=1.0)
        lines = seg.draw(rng, 500)
        assert lines.min() >= 0 and lines.max() < 64

    def test_hot_segment_skewed(self):
        rng = np.random.default_rng(0)
        seg = HotSegment(256, alpha=1.2)
        lines = seg.draw(rng, 5000)
        # undo the rank -> line shuffle to count draws per Zipf rank
        ranks = np.argsort(seg._perm)[lines]
        counts = np.bincount(ranks, minlength=256)
        assert counts[0] > 10 * max(1, counts[200])

    def test_phased_wws_rerandomizes(self):
        seg = PhasedWriteSegment(128, alpha=1.2)
        seg.start_phase(0)
        perm0 = seg._perm.copy()
        seg.start_phase(1)
        assert not np.array_equal(perm0, seg._perm)

    def test_phase_restart_idempotent(self):
        seg = PhasedWriteSegment(128)
        seg.start_phase(3)
        perm = seg._perm.copy()
        seg.start_phase(3)
        assert np.array_equal(perm, seg._perm)

    def test_local_window_bounded(self):
        rng = np.random.default_rng(0)
        seg = LocalSegment(100, window_lines=10)
        lines = seg.draw(rng, 200)
        assert lines.min() >= 0 and lines.max() < 100

    def test_segment_rejects_zero_lines(self):
        with pytest.raises(ConfigurationError):
            StreamingSegment(0)


class TestTrace:
    def make_trace(self, n=10):
        return Trace(
            np.zeros(n, dtype=np.int16),
            np.arange(n, dtype=np.int64) * 128,
            np.zeros(n, dtype=np.uint8),
        )

    def test_length(self):
        assert len(self.make_trace(5)) == 5

    def test_rejects_mismatched_columns(self):
        with pytest.raises(TraceError):
            Trace(np.zeros(3, dtype=np.int16), np.zeros(2, dtype=np.int64),
                  np.zeros(3, dtype=np.uint8))

    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            Trace(np.zeros(0, dtype=np.int16), np.zeros(0, dtype=np.int64),
                  np.zeros(0, dtype=np.uint8))

    def test_rejects_negative_addresses(self):
        with pytest.raises(TraceError):
            Trace(np.zeros(1, dtype=np.int16), np.array([-1], dtype=np.int64),
                  np.zeros(1, dtype=np.uint8))

    def test_write_fraction(self):
        trace = Trace(
            np.zeros(4, dtype=np.int16),
            np.zeros(4, dtype=np.int64),
            np.array([FLAG_WRITE, 0, FLAG_WRITE, 0], dtype=np.uint8),
        )
        assert trace.write_fraction == pytest.approx(0.5)

    def test_records_decode_flags(self):
        trace = Trace(
            np.array([3], dtype=np.int16),
            np.array([256], dtype=np.int64),
            np.array([FLAG_WRITE | FLAG_LOCAL], dtype=np.uint8),
        )
        sm, address, flags = next(trace.rows())
        assert (sm, address) == (3, 256)
        assert flags & FLAG_WRITE and flags & FLAG_LOCAL


class TestProfiles:
    def test_sixteen_benchmarks(self):
        assert len(PROFILES) == 16

    def test_all_regions_populated(self):
        regions = {p.region for p in PROFILES.values()}
        assert regions == {1, 2, 3, 4}

    def test_mixes_sum_to_one(self):
        for profile in PROFILES.values():
            assert sum(profile.mix_vector()) == pytest.approx(1.0)

    def test_get_profile_unknown(self):
        with pytest.raises(ConfigurationError):
            get_profile("doom3")

    def test_suite_names_ordered_by_region(self):
        names = suite_names()
        regions = [PROFILES[n].region for n in names]
        assert regions == sorted(regions)

    @pytest.mark.parametrize("value", [0.0, -0.1, 1.5, float("nan")])
    def test_phase_fraction_must_be_in_zero_one(self, value):
        with pytest.raises(ConfigurationError, match="bfs: phase_fraction"):
            replace(PROFILES["bfs"], phase_fraction=value)

    @pytest.mark.parametrize("value", [-0.3, 1.5, float("nan")])
    def test_burst_fraction_must_be_in_unit_interval(self, value):
        with pytest.raises(ConfigurationError, match="bfs: burst_fraction"):
            replace(PROFILES["bfs"], burst_fraction=value)

    def test_mix_probabilities_must_be_non_negative(self):
        # the mix still sums to one, so only the sign can reject it
        bfs = PROFILES["bfs"]
        with pytest.raises(ConfigurationError, match="bfs: p_local_write"):
            replace(
                bfs, p_local_write=-0.3,
                p_stream_read=bfs.p_stream_read + bfs.p_local_write + 0.3,
            )

    def test_fraction_bounds_are_inclusive_where_meaningful(self):
        bfs = PROFILES["bfs"]
        replace(bfs, phase_fraction=1.0, burst_fraction=1.0)
        replace(bfs, burst_fraction=0.0)

    def test_write_fractions_span_paper_range(self):
        """The paper quotes near-0% to ~63% writes across the suite."""
        fractions = [p.write_fraction for p in PROFILES.values()]
        assert min(fractions) < 0.10
        assert max(fractions) > 0.40


class TestGenerator:
    def test_deterministic(self):
        a = build_workload("bfs", num_accesses=2000, seed=7)
        b = build_workload("bfs", num_accesses=2000, seed=7)
        assert np.array_equal(a.trace.address, b.trace.address)
        assert np.array_equal(a.trace.flags, b.trace.flags)

    def test_seed_changes_trace(self):
        a = build_workload("bfs", num_accesses=2000, seed=1)
        b = build_workload("bfs", num_accesses=2000, seed=2)
        assert not np.array_equal(a.trace.address, b.trace.address)

    def test_addresses_line_aligned(self):
        wl = build_workload("kmeans", num_accesses=2000, seed=0)
        assert (wl.trace.address % ACCESS_GRANULARITY == 0).all()

    def test_sm_ids_in_range(self):
        wl = build_workload("kmeans", num_accesses=2000, num_sms=15, seed=0)
        assert wl.trace.sm.min() >= 0 and wl.trace.sm.max() < 15

    def test_write_fraction_close_to_profile(self):
        profile = get_profile("bfs")
        wl = build_workload("bfs", num_accesses=20000, seed=0)
        assert wl.trace.write_fraction == pytest.approx(
            profile.write_fraction, abs=0.06
        )

    def test_local_accesses_flagged(self):
        wl = build_workload("mri-gridding", num_accesses=20000, seed=0)
        assert ((wl.trace.flags & FLAG_LOCAL) != 0).mean() > 0.05

    def test_kernel_descriptor_matches_profile(self):
        profile = get_profile("tpacf")
        wl = build_workload("tpacf", num_accesses=100, seed=0)
        assert wl.kernel.regs_per_thread == profile.regs_per_thread
        assert wl.kernel.compute_intensity == profile.compute_intensity

    def test_generated_traces_are_pinned(self):
        assert {key.split("/")[0] for key in TRACE_DIGESTS} == set(suite_names())
        assert moved_trace_digests() == []

    def test_generator_rejects_bad_args(self):
        gen = TraceGenerator(get_profile("bfs"))
        with pytest.raises(ConfigurationError):
            gen.generate(0)
        with pytest.raises(ConfigurationError):
            gen.generate(100, num_sms=0)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(sorted(PROFILES)), st.integers(min_value=100, max_value=3000))
    def test_any_profile_generates_valid_trace(self, name, length):
        wl = build_workload(name, num_accesses=length, seed=0)
        assert len(wl.trace) == length
        assert wl.trace.address.min() >= 0
