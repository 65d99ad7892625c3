"""Tests for retention-failure statistics."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import DeviceModelError
from repro.sttram.failure import (
    bit_failure_probability,
    block_failure_probability,
    max_refresh_interval,
)
from repro.units import MS, US


class TestBitFailure:
    def test_zero_elapsed_means_zero_failure(self):
        assert bit_failure_probability(0.0, 40 * US) == 0.0

    def test_one_retention_time_is_1_minus_1_over_e(self):
        p = bit_failure_probability(40 * US, 40 * US)
        assert p == pytest.approx(1 - math.exp(-1))

    def test_monotonic_in_elapsed(self):
        assert bit_failure_probability(10 * US, 40 * US) < bit_failure_probability(
            20 * US, 40 * US
        )

    def test_rejects_negative_elapsed(self):
        with pytest.raises(DeviceModelError):
            bit_failure_probability(-1.0, 1.0)

    def test_rejects_nonpositive_retention(self):
        with pytest.raises(DeviceModelError):
            bit_failure_probability(1.0, 0.0)

    @given(st.floats(min_value=0, max_value=1e3),
           st.floats(min_value=1e-6, max_value=1e3))
    def test_probability_in_unit_interval(self, elapsed, retention):
        p = bit_failure_probability(elapsed, retention)
        assert 0.0 <= p <= 1.0


class TestBlockFailure:
    def test_block_worse_than_bit(self):
        elapsed, retention = 5 * US, 40 * US
        p_bit = bit_failure_probability(elapsed, retention)
        p_block = block_failure_probability(elapsed, retention, 2048)
        assert p_block > p_bit

    def test_single_bit_block_matches_bit(self):
        p_bit = bit_failure_probability(3 * US, 40 * US)
        p_block = block_failure_probability(3 * US, 40 * US, 1)
        assert p_block == pytest.approx(p_bit)

    def test_cliff_behaviour(self):
        """Near the retention time nearly every 256B block has failed -
        the paper's justification that ECC cannot save expired LR blocks."""
        p = block_failure_probability(40 * US, 40 * US, 2048)
        assert p > 0.999999

    def test_tiny_elapsed_is_numerically_stable(self):
        p = block_failure_probability(1e-12, 40 * MS, 2048)
        assert 0 < p < 1e-4

    def test_rejects_bad_block_size(self):
        with pytest.raises(DeviceModelError):
            block_failure_probability(1.0, 1.0, 0)

    @given(st.integers(min_value=1, max_value=4096))
    def test_monotonic_in_block_size(self, bits):
        p_small = block_failure_probability(2 * US, 40 * US, bits)
        p_large = block_failure_probability(2 * US, 40 * US, bits + 1)
        assert p_large >= p_small


class TestRefreshInterval:
    def test_interval_much_shorter_than_retention(self):
        interval = max_refresh_interval(40 * US, 2048, target_block_failure=1e-9)
        assert interval < 40 * US / 1000

    def test_interval_meets_target(self):
        retention, bits, target = 40 * US, 2048, 1e-9
        interval = max_refresh_interval(retention, bits, target)
        assert block_failure_probability(interval, retention, bits) <= target * 1.01

    def test_interval_scales_with_retention(self):
        i_lr = max_refresh_interval(40 * US, 2048)
        i_hr = max_refresh_interval(40 * MS, 2048)
        assert i_hr == pytest.approx(i_lr * 1000, rel=1e-6)

    def test_rejects_bad_target(self):
        with pytest.raises(DeviceModelError):
            max_refresh_interval(1.0, 2048, target_block_failure=0.0)
        with pytest.raises(DeviceModelError):
            max_refresh_interval(1.0, 2048, target_block_failure=1.0)

    def test_looser_target_allows_longer_interval(self):
        tight = max_refresh_interval(40 * US, 2048, target_block_failure=1e-12)
        loose = max_refresh_interval(40 * US, 2048, target_block_failure=1e-6)
        assert loose > tight
