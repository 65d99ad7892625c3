"""Tests for the region-aggregate experiment and the ASCII bar renderer."""

import pytest

from repro.analysis.plot import ascii_bars, bars_for_columns
from repro.errors import AnalysisError
from repro.experiments import fig8
from repro.experiments.parallel import run_battery


class TestRegionsExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        results, _ = run_battery(
            ["regions"],
            trace_length=6000,
            benchmarks=["stencil", "tpacf", "mri-gridding"],
        )
        return results["regions"]

    def test_one_row_per_region_present(self, result):
        labels = [row[0] for row in result.rows]
        assert any("insensitive" in label for label in labels)
        assert any("register-limited" in label for label in labels)

    def test_benchmark_counts(self, result):
        counts = {row[0]: row[1] for row in result.rows}
        assert counts["1: insensitive"] == 1
        assert counts["2: register-limited"] == 2

    def test_region1_flat(self, result):
        row = [r for r in result.rows if r[0].startswith("1")][0]
        for speedup in row[2:]:
            assert speedup == pytest.approx(1.0, abs=0.05)

    def test_region2_gains_only_with_registers(self, result):
        extras = result.extras
        assert extras["region2_C2"] > extras["region2_C1"]

    def test_extras_cover_all_regions_and_configs(self, result):
        for row in result.rows:
            region_number = row[0].split(":")[0]
            for config in fig8.CONFIG_ORDER:
                assert f"region{region_number}_{config}" in result.extras


class TestAsciiBars:
    def test_basic_rendering(self):
        out = ascii_bars(["a", "bb"], [1.0, 2.0], width=10)
        lines = out.splitlines()
        assert len(lines) == 2
        assert "bb" in lines[1]
        # the longer value has the longer bar
        assert lines[1].count("█") > lines[0].count("█")

    def test_reference_tick_drawn(self):
        out = ascii_bars(["x"], [0.5], width=20, reference=1.0)
        assert "|" in out

    def test_values_shown(self):
        out = ascii_bars(["x"], [1.234], precision=2)
        assert "1.23" in out

    def test_zero_values_ok(self):
        out = ascii_bars(["x", "y"], [0.0, 0.0])
        assert "x" in out

    def test_validation(self):
        with pytest.raises(AnalysisError):
            ascii_bars(["a"], [1.0, 2.0])
        with pytest.raises(AnalysisError):
            ascii_bars([], [])
        with pytest.raises(AnalysisError):
            ascii_bars(["a"], [-1.0])
        with pytest.raises(AnalysisError):
            ascii_bars(["a"], [1.0], width=0)

    def test_bars_for_columns_titled(self):
        out = bars_for_columns(["a"], "speedup", [1.5])
        assert out.startswith("-- speedup --")


class TestRenderBars:
    def test_experiment_render_bars(self):
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult(
            "demo", ["bench", "speedup"], [["a", 1.2], ["b", 0.8], ["Gmean", "-"]]
        )
        out = result.render_bars()
        assert "speedup" in out
        assert "Gmean" not in out  # non-numeric rows skipped

    def test_render_bars_column_subset(self):
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult(
            "demo", ["bench", "x", "y"], [["a", 1.0, 2.0]]
        )
        out = result.render_bars(columns=["y"])
        assert "-- y --" in out and "-- x --" not in out
