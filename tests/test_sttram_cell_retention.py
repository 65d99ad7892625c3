"""Tests for the 1T1J cell and the retention-level catalogue (Table 1)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import DeviceModelError
from repro.sttram.cell import STTCell
from repro.sttram.mtj import MTJParameters
from repro.sttram.retention import (
    HIGH_RETENTION_SECONDS,
    HR_RETENTION_SECONDS,
    LR_RETENTION_SECONDS,
    RetentionLevel,
    retention_catalogue,
)
from repro.units import MS, US, YEAR


def make_cell(retention_s):
    return STTCell(mtj=MTJParameters.for_retention(retention_s))


class TestSTTCell:
    def test_write_pulse_scales_with_delta(self):
        fast = make_cell(40 * US)
        slow = make_cell(10 * YEAR)
        assert fast.write_pulse_width < slow.write_pulse_width

    def test_ten_year_pulse_near_anchor(self):
        cell = make_cell(10 * YEAR)
        assert cell.write_pulse_width == pytest.approx(10e-9, rel=0.01)

    def test_write_energy_ordering(self):
        lr = make_cell(40 * US)
        hr = make_cell(40 * MS)
        ny = make_cell(10 * YEAR)
        assert lr.write_energy_per_bit < hr.write_energy_per_bit < ny.write_energy_per_bit

    def test_read_energy_well_below_write_energy(self):
        cell = make_cell(40 * MS)
        assert cell.read_energy_per_bit < 0.1 * cell.write_energy_per_bit

    def test_area_positive(self):
        assert STTCell.area(40e-9) > 0

    def test_area_rejects_bad_feature(self):
        with pytest.raises(DeviceModelError):
            STTCell.area(0.0)

    def test_rejects_bad_voltage(self):
        with pytest.raises(DeviceModelError):
            STTCell(mtj=MTJParameters(delta=20), supply_voltage=0.0)

    @given(st.floats(min_value=1e-4, max_value=1e8))
    def test_write_energy_monotonic_in_retention(self, retention):
        lo = make_cell(retention)
        hi = make_cell(retention * 100)
        assert lo.write_energy_per_bit < hi.write_energy_per_bit


class TestRetentionLevel:
    def test_from_retention_time_derives_delta(self):
        level = RetentionLevel.from_retention_time("x", 40 * MS)
        assert 17 < level.delta < 18

    def test_ten_year_level_needs_no_refresh(self):
        level = RetentionLevel.from_retention_time("ny", 10 * YEAR)
        assert not level.needs_refresh
        assert level.refresh_scope == "none"

    def test_relaxed_level_needs_refresh(self):
        level = RetentionLevel.from_retention_time("lr", 40 * US)
        assert level.needs_refresh

    def test_line_energy_scales_with_line_size(self):
        level = RetentionLevel.from_retention_time("x", 40 * MS)
        assert level.write_energy_per_line(256) == pytest.approx(
            2 * level.write_energy_per_line(128)
        )

    def test_line_energy_rejects_bad_size(self):
        level = RetentionLevel.from_retention_time("x", 40 * MS)
        with pytest.raises(DeviceModelError):
            level.write_energy_per_line(0)
        with pytest.raises(DeviceModelError):
            level.read_energy_per_line(-1)


class TestCatalogue:
    def test_default_catalogue_has_three_levels(self):
        cat = retention_catalogue()
        assert set(cat) == {"10year", "hr", "lr"}

    def test_catalogue_retention_ordering(self):
        cat = retention_catalogue()
        assert (
            cat["lr"].retention_time
            < cat["hr"].retention_time
            < cat["10year"].retention_time
        )

    def test_catalogue_write_latency_ordering(self):
        """The Table 1 trend: lower retention -> faster, cheaper writes."""
        cat = retention_catalogue()
        assert cat["lr"].write_latency < cat["hr"].write_latency
        assert cat["hr"].write_latency < cat["10year"].write_latency
        assert (
            cat["lr"].write_energy_per_line(256)
            < cat["hr"].write_energy_per_line(256)
            < cat["10year"].write_energy_per_line(256)
        )

    def test_default_constants(self):
        assert HR_RETENTION_SECONDS == pytest.approx(40e-3)
        assert LR_RETENTION_SECONDS == pytest.approx(40e-6)
        assert HIGH_RETENTION_SECONDS == pytest.approx(10 * YEAR)

    def test_custom_retention_targets(self):
        cat = retention_catalogue(hr_retention_s=4 * MS, lr_retention_s=10 * US)
        assert cat["hr"].retention_time == pytest.approx(4 * MS)
        assert cat["lr"].retention_time == pytest.approx(10 * US)

    def test_rejects_inverted_targets(self):
        with pytest.raises(DeviceModelError):
            retention_catalogue(hr_retention_s=10 * US, lr_retention_s=40 * MS)
