"""Tests for repro.units."""


import pytest
from hypothesis import given, strategies as st

from repro import units


class TestFormatting:
    def test_format_time_ns(self):
        assert units.format_time(5e-9) == "5ns"

    def test_format_time_us(self):
        assert units.format_time(40e-6) == "40us"

    def test_format_time_negative(self):
        assert units.format_time(-1e-3) == "-1ms"

    def test_format_time_sub_ps(self):
        assert "ps" in units.format_time(0.5e-12)

    def test_format_energy_nj(self):
        assert units.format_energy(2e-9) == "2nJ"

    def test_format_energy_pj(self):
        assert units.format_energy(150e-12) == "150pJ"

    def test_format_capacity_kb(self):
        assert units.format_capacity(384 * 1024) == "384KB"

    def test_format_capacity_mb_fraction(self):
        assert units.format_capacity(1536 * 1024) == "1.50MB"

    def test_format_capacity_bytes(self):
        assert units.format_capacity(100) == "100B"

    def test_format_capacity_rejects_negative(self):
        with pytest.raises(ValueError):
            units.format_capacity(-1)


class TestPowersOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 4, 256, 1 << 20])
    def test_is_power_of_two_true(self, value):
        assert units.is_power_of_two(value)

    @pytest.mark.parametrize("value", [0, -2, 3, 6, 255])
    def test_is_power_of_two_false(self, value):
        assert not units.is_power_of_two(value)

    def test_log2_int_exact(self):
        assert units.log2_int(256) == 8

    def test_log2_int_rejects_non_power(self):
        with pytest.raises(ValueError):
            units.log2_int(100)

    @given(st.integers(min_value=0, max_value=40))
    def test_log2_roundtrip(self, exponent):
        assert units.log2_int(1 << exponent) == exponent


class TestConstants:
    def test_year_is_365_25_days(self):
        assert units.YEAR == pytest.approx(365.25 * 24 * 3600)

    def test_capacity_scale(self):
        assert units.MB == 1024 * units.KB
        assert units.GB == 1024 * units.MB

    def test_time_ordering(self):
        assert units.PS < units.NS < units.US < units.MS < units.SECOND
