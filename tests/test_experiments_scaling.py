"""Tests for the technology-scaling experiment."""

import pytest

from repro.experiments.runner import run_experiment


@pytest.fixture(scope="module")
def result():
    return run_experiment("scaling", trace_length=4000, benchmarks=["nn"])


class TestScalingExperiment:
    def test_three_nodes(self, result):
        assert [row[0] for row in result.rows] == ["45nm", "40nm", "32nm"]

    def test_advantage_grows_with_shrink(self, result):
        """The paper's motivation: worse SRAM leakage per node means a
        growing STT total-power advantage."""
        ratios = result.column("c1_total_power_ratio")
        assert ratios[2] < ratios[1] < ratios[0]

    def test_extras_match_rows(self, result):
        assert result.extras["total_ratio_40nm"] == pytest.approx(
            result.row_for("40nm")[2], abs=5e-4
        )

    def test_leakage_ratio_below_one(self, result):
        for ratio in result.column("c1_leakage_ratio"):
            assert ratio < 1.0

    def test_speedups_positive(self, result):
        for speedup in result.column("c1_speedup"):
            assert speedup > 0
