"""Tests for the MTJ physics model."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import DeviceModelError
from repro.sttram.mtj import (
    DEFAULT_TAU0,
    MTJParameters,
    TEN_YEAR_DELTA,
    retention_time_for_stability,
    stability_for_retention_time,
)
from repro.units import MS, NS, US, YEAR


class TestRetentionStabilityLaw:
    def test_ten_year_delta_about_40(self):
        delta = stability_for_retention_time(10 * YEAR)
        assert 39 < delta < 42
        assert delta == pytest.approx(TEN_YEAR_DELTA)

    def test_40ms_delta(self):
        assert stability_for_retention_time(40 * MS) == pytest.approx(
            math.log(40e-3 / 1e-9)
        )

    def test_roundtrip(self):
        for retention in (40 * US, 40 * MS, 10 * YEAR):
            delta = stability_for_retention_time(retention)
            assert retention_time_for_stability(delta) == pytest.approx(retention)

    def test_rejects_retention_below_tau0(self):
        with pytest.raises(DeviceModelError):
            stability_for_retention_time(0.5 * NS)

    def test_rejects_nonpositive_tau0(self):
        with pytest.raises(DeviceModelError):
            stability_for_retention_time(1.0, tau0=0.0)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(DeviceModelError):
            retention_time_for_stability(0.0)

    @given(st.floats(min_value=1e-6, max_value=1e9))
    def test_monotonic_in_retention(self, retention):
        d1 = stability_for_retention_time(retention)
        d2 = stability_for_retention_time(retention * 10)
        assert d2 > d1


class TestMTJParameters:
    def test_for_retention_factory(self):
        mtj = MTJParameters.for_retention(40 * MS)
        assert mtj.retention_time == pytest.approx(40 * MS)

    def test_resistance_antiparallel_uses_tmr(self):
        mtj = MTJParameters(delta=20, resistance_parallel=2000, tmr=1.5)
        assert mtj.resistance_antiparallel == pytest.approx(5000)

    def test_rejects_bad_delta(self):
        with pytest.raises(DeviceModelError):
            MTJParameters(delta=-1)

    def test_rejects_bad_tmr(self):
        with pytest.raises(DeviceModelError):
            MTJParameters(delta=20, tmr=0.0)


class TestSwitchingCurrent:
    def test_current_decreases_with_pulse_width(self):
        mtj = MTJParameters(delta=TEN_YEAR_DELTA)
        i_fast = mtj.switching_current(5 * NS)
        i_slow = mtj.switching_current(50 * NS)
        assert i_fast > i_slow

    def test_lower_delta_needs_less_current(self):
        high = MTJParameters(delta=TEN_YEAR_DELTA)
        low = MTJParameters(delta=12.0)
        pulse = 5 * NS
        assert low.switching_current(pulse) < high.switching_current(pulse)

    def test_rejects_pulse_at_tau0(self):
        mtj = MTJParameters(delta=20)
        with pytest.raises(DeviceModelError):
            mtj.switching_current(DEFAULT_TAU0)

    def test_rejects_pulse_beyond_window(self):
        mtj = MTJParameters(delta=10)
        # pulse longer than retention: the junction would self-switch
        with pytest.raises(DeviceModelError):
            mtj.switching_current(mtj.retention_time * 10)

    def test_current_below_ic0(self):
        mtj = MTJParameters(delta=TEN_YEAR_DELTA, ic0=55e-6)
        assert mtj.switching_current(10 * NS) < 55e-6
