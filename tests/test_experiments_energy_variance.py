"""Unit tests for the energy-breakdown and seed-robustness experiments."""

import pytest

from repro.experiments import fig8, variance
from repro.experiments.runner import run_experiment


class TestEnergyBreakdown:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            "energy", trace_length=3000, benchmarks=["bfs", "streamcluster"]
        )

    def test_shares_sum_to_one(self, result):
        for row in result.rows:
            assert sum(row[1:5]) == pytest.approx(1.0, abs=0.02)

    def test_shares_non_negative(self, result):
        for row in result.rows:
            assert all(share >= 0 for share in row[1:5])

    def test_read_mostly_benchmark_low_migration(self, result):
        row = result.row_for("streamcluster")
        assert row[2] < 0.10  # migration share

    def test_extras_present(self, result):
        assert 0 <= result.extras["mean_overhead_share"] <= 1
        assert result.extras["max_overhead_share"] >= result.extras[
            "mean_overhead_share"
        ]


class TestVariance:
    @pytest.fixture(scope="class")
    def result(self):
        names = ["nn", "tpacf"]
        return variance.merge(names, [
            (seed, [fig8.compute(name, trace_length=2000, seed=seed)
                    for name in names])
            for seed in (0, 1)
        ])

    def test_one_row_per_metric(self, result):
        assert len(result.rows) == len(variance.METRICS)

    def test_min_max_bracket_mean(self, result):
        for row in result.rows:
            _, mean, _, lo, hi = row
            assert lo <= mean <= hi

    def test_std_non_negative(self, result):
        for row in result.rows:
            assert row[2] >= 0

    def test_default_seed_expansion(self):
        # seed=5 expands to (5, 6, 7)
        result = run_experiment(
            "variance", trace_length=800, benchmarks=["nn"], seed=5
        )
        assert "(5, 6, 7)" in result.name

    def test_flat_benchmarks_are_seed_stable(self, result):
        """nn/tpacf are insensitive: speedups must be ~1 at every seed."""
        row = result.row_for("gmean_speedup_c1")
        assert row[3] == pytest.approx(1.0, abs=0.05)  # min
        assert row[4] == pytest.approx(1.0, abs=0.05)  # max

    def test_mean_std_helper(self):
        mean, std = variance._mean_std([1.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(2.0 ** 0.5)

    def test_mean_std_single_value(self):
        mean, std = variance._mean_std([4.2])
        assert mean == pytest.approx(4.2)
        assert std == 0.0
