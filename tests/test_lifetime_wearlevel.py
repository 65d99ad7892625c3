"""Tests for the endurance/lifetime analysis and wear-leveling wrapper."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.lifetime import lifetime_report, relative_lifetime
from repro.cache.array import SetAssociativeCache
from repro.cache.wearlevel import WearLevelingCache
from repro.errors import AnalysisError, ConfigurationError
from repro.units import KB


def make_array(capacity=4 * KB, assoc=2, line=256):
    return SetAssociativeCache(capacity, assoc, line)


class TestFrameWearCounters:
    def test_fill_wears_the_frame(self):
        array = make_array()
        array.access(0x0, is_write=False)
        frames = array.per_frame_write_counts()
        assert sum(sum(s) for s in frames) == 1

    def test_write_hits_accumulate(self):
        array = make_array()
        for _ in range(5):
            array.access(0x0, is_write=True)
        frames = array.per_frame_write_counts()
        assert max(max(s) for s in frames) == 5  # 1 fill + 4 write hits

    def test_wear_survives_eviction(self):
        array = SetAssociativeCache(2 * 256, 1, 256)  # 2 sets direct-mapped
        array.access(0x0, is_write=True)
        array.access(0x0 + 2 * 256, is_write=True)  # evicts, same frame
        frames = array.per_frame_write_counts()
        assert frames[0][0] == 2


class TestLifetimeReport:
    def test_lifetime_scales_with_endurance(self):
        array = make_array()
        for _ in range(10):
            array.access(0x0, is_write=True)
        one = lifetime_report(array, elapsed_s=1.0, endurance_writes=1e6)
        ten = lifetime_report(array, elapsed_s=1.0, endurance_writes=1e7)
        assert ten.lifetime_s == pytest.approx(10 * one.lifetime_s)

    def test_lifetime_infinite_without_writes(self):
        array = make_array()
        report = lifetime_report(array, elapsed_s=1.0)
        assert report.lifetime_s == float("inf")

    def test_imbalance_of_single_hot_line(self):
        array = make_array()
        for _ in range(100):
            array.access(0x0, is_write=True)
        report = lifetime_report(array, elapsed_s=1.0)
        assert report.imbalance > 10

    def test_even_writes_low_imbalance(self):
        array = make_array()
        for line in range(array.num_lines):
            array.access(line * 256, is_write=True)
        report = lifetime_report(array, elapsed_s=1.0)
        assert report.imbalance == pytest.approx(1.0)

    def test_relative_lifetime(self):
        array = make_array()
        for _ in range(10):
            array.access(0x0, is_write=True)
        a = lifetime_report(array, elapsed_s=1.0, endurance_writes=2e6)
        b = lifetime_report(array, elapsed_s=1.0, endurance_writes=1e6)
        assert relative_lifetime(a, b) == pytest.approx(2.0)

    def test_validation(self):
        array = make_array()
        with pytest.raises(AnalysisError):
            lifetime_report(array, elapsed_s=0.0)
        with pytest.raises(AnalysisError):
            lifetime_report(array, elapsed_s=1.0, endurance_writes=0.0)


class TestWearLeveling:
    def test_rotation_spreads_hot_line_wear(self):
        """A single hammered line must wear many frames under rotation."""
        plain = make_array(capacity=8 * KB, assoc=2)
        leveled = WearLevelingCache(
            make_array(capacity=8 * KB, assoc=2), rotation_period_writes=50
        )
        for _ in range(1000):
            plain.access(0x0, is_write=True)
            leveled.access(0x0, is_write=True)
        plain_max = max(max(s) for s in plain.per_frame_write_counts())
        leveled_max = max(max(s) for s in leveled.per_frame_write_counts())
        assert leveled_max < plain_max / 3
        assert leveled.rotations > 0

    def test_no_rotation_behaves_identically(self):
        plain = make_array()
        leveled = WearLevelingCache(make_array(), rotation_period_writes=10**9)
        for i in range(200):
            a = plain.access((i % 7) * 256, is_write=(i % 2 == 0))
            b = leveled.access((i % 7) * 256, is_write=(i % 2 == 0))
            assert a.hit == b.hit

    def test_consistent_lookup_between_rotations(self):
        leveled = WearLevelingCache(make_array(), rotation_period_writes=1000)
        leveled.access(0x1000, is_write=True)
        assert leveled.probe(0x1000)

    def test_rotation_counts_dirty_flush(self):
        leveled = WearLevelingCache(make_array(), rotation_period_writes=3)
        for i in range(3):
            leveled.access(i * 256, is_write=True)
        assert leveled.rotations == 1
        assert leveled.rotation_writebacks == 3

    def test_non_pow2_sets_supported(self):
        array = SetAssociativeCache(1344 * KB, 7, 256)  # 768 sets
        leveled = WearLevelingCache(array, rotation_period_writes=10)
        for i in range(100):
            leveled.access((i % 5) * 256, is_write=True)
        assert leveled.rotations > 0

    def test_rejects_bad_period(self):
        with pytest.raises(ConfigurationError):
            WearLevelingCache(make_array(), rotation_period_writes=0)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=31), min_size=20, max_size=200))
    def test_leveled_wear_bounded_on_skewed_writes(self, lids):
        """Bound on short-run wear under rotation.

        XOR rotation is only guaranteed to help over many rotations; on a
        short stream, hot lines can swap into each other's worn frames, so
        the honest invariant is a bound: no frame may exceed the unleveled
        maximum by more than one rotation segment (period writes + the
        refills the flushes cost).
        """
        period = 25
        plain = make_array()
        leveled = WearLevelingCache(make_array(), rotation_period_writes=period)
        stream = [lid % 4 for lid in lids]  # concentrate on 4 lines
        for lid in stream:
            plain.access(lid * 256, is_write=True)
            leveled.access(lid * 256, is_write=True)
        plain_max = max(max(s) for s in plain.per_frame_write_counts())
        leveled_max = max(max(s) for s in leveled.per_frame_write_counts())
        assert leveled_max <= plain_max + period + leveled.rotations + 1
