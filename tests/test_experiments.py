"""Tests for the experiment harnesses (small traces, benchmark subsets)."""

import pytest

from repro.experiments import fig6, fig8, table1, table2
from repro.experiments.common import ExperimentResult, geomean
from repro.experiments.parallel import run_battery
from repro.experiments.runner import EXPERIMENTS, run_experiment

SMALL = 3000
SUBSET = ["bfs", "stencil", "tpacf"]


class TestCommon:
    def test_geomean_basic(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geomean_rejects_empty(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_result_render_contains_name(self):
        result = ExperimentResult("demo", ["a"], [[1]])
        assert "demo" in result.render()

    def test_result_column_and_row(self):
        result = ExperimentResult("demo", ["k", "v"], [["x", 1], ["y", 2]])
        assert result.column("v") == [1, 2]
        assert result.row_for("y") == ["y", 2]

    def test_result_row_missing_raises(self):
        result = ExperimentResult("demo", ["k"], [["x"]])
        with pytest.raises(KeyError):
            result.row_for("z")

    def test_result_csv(self):
        result = ExperimentResult("demo", ["k", "v"], [["x", 1.5]])
        assert result.csv().splitlines()[0] == "k,v"


class TestTable1:
    def test_three_rows(self):
        result = table1.run()
        assert len(result.rows) == 3

    def test_write_energy_ordering(self):
        """Table 1's trend: relaxing retention cuts write energy/latency."""
        result = table1.run()
        energies = result.column("write_energy_pJ_per_line")
        by_level = dict(zip(result.column("level"), energies))
        assert by_level["lr"] < by_level["hr"] < by_level["10year"]

    def test_energy_ratio_extras(self):
        result = table1.run()
        assert result.extras["we_ratio_10year_over_lr"] > 2.0
        assert result.extras["wl_ratio_10year_over_lr"] > 2.0


class TestTable2:
    def test_five_rows(self):
        result = table2.run()
        assert len(result.rows) == 5

    def test_area_equivalence_premise(self):
        """C1 and the STT baseline must fit in ~the SRAM baseline's area."""
        result = table2.run()
        assert result.extras["c1_area_over_sram"] < 1.15
        assert result.extras["stt_area_over_sram"] < 1.15


class TestFig3:
    def test_rows_per_benchmark_plus_gmean(self):
        result = run_experiment("fig3", trace_length=SMALL, benchmarks=SUBSET)
        assert len(result.rows) == len(SUBSET) + 1
        assert result.rows[-1][0] == "Gmean"

    def test_bfs_more_skewed_than_stencil(self):
        """The paper's Fig. 3 contrast: irregular vs regular writes."""
        result = run_experiment("fig3", trace_length=SMALL, benchmarks=["bfs", "stencil"])
        bfs_cov = result.row_for("bfs")[2]
        stencil_cov = result.row_for("stencil")[2]
        assert bfs_cov > 3 * stencil_cov

    def test_covs_non_negative(self):
        result = run_experiment("fig3", trace_length=SMALL, benchmarks=SUBSET)
        for row in result.rows[:-1]:
            assert row[2] >= 0 and row[3] >= 0


class TestFig4:
    def test_th1_is_reference(self):
        result = run_experiment("fig4", trace_length=SMALL, benchmarks=["bfs"])
        row = result.row_for("bfs")
        assert row[1] == pytest.approx(1.0)  # lr/hr ratio at TH1
        assert row[5] == pytest.approx(1.0)  # total writes at TH1

    def test_higher_threshold_lower_lr_utilization(self):
        """The paper's Fig. 4: TH1 maximizes LR usage."""
        result = run_experiment("fig4", trace_length=SMALL, benchmarks=["bfs", "kmeans"])
        avg = result.row_for("AVG")
        th1, th3, th7, th15 = avg[1:5]
        assert th1 >= th3 >= th7 >= th15

    def test_write_overhead_of_th1_small(self):
        """...while costing almost no extra writes (justifies TH=1)."""
        result = run_experiment("fig4", trace_length=SMALL, benchmarks=["bfs", "kmeans"])
        assert result.extras["avg_write_overhead_th1_vs_th15"] < 1.10


class TestFig5:
    def test_normalized_to_full_associativity(self):
        result = run_experiment("fig5", trace_length=SMALL, benchmarks=["bfs"])
        row = result.row_for("bfs")
        # every column is a fraction of the fully-associative utilization
        for value in row[1:]:
            assert 0 < value <= 1.05

    def test_higher_associativity_at_least_as_good(self):
        result = run_experiment("fig5", trace_length=SMALL, benchmarks=["bfs", "kmeans"])
        gmean_row = result.rows[-1]
        assert gmean_row[1] <= gmean_row[-1] * 1.02  # 1-way <= 16-way

    def test_two_way_close_to_full(self):
        """The paper picks 2-way: nearly fully-associative utilization."""
        result = run_experiment("fig5", trace_length=SMALL, benchmarks=SUBSET)
        assert result.extras["two_way_gap_to_full"] < 0.10


class TestFig6:
    def test_fractions_rows(self):
        result = run_experiment("fig6", trace_length=SMALL, benchmarks=["bfs"])
        row = result.row_for("bfs")
        fractions = row[1:-1]
        assert sum(fractions) == pytest.approx(1.0, abs=0.01)

    def test_most_rewrites_fast(self):
        """The paper's Fig. 6: most LR rewrites land within ~10 us."""
        result = run_experiment("fig6", trace_length=SMALL, benchmarks=["bfs", "kmeans"])
        assert result.extras["avg_fraction_under_10us"] > 0.5

    def test_exact_10us_interval_counts_as_under_10us(self):
        """Boundary regression: an interval of exactly 10e-6 s is <=10us.

        The bucket bounds are exact literals; 10e-6 == 1e-5, so the
        paper's threshold lands in the ``<=10us`` bin, not the next one.
        """
        from repro.analysis.intervals import rewrite_interval_distribution

        distribution = rewrite_interval_distribution([10e-6])
        assert distribution.counts["<=10us"] == 1
        assert distribution.fraction_under(10e-6) == 1.0

    def test_under_10us_includes_the_10us_bucket(self):
        """fig6's under_10us is the cumulative share through <=10us."""
        payload = fig6.compute("bfs", trace_length=SMALL)
        fractions = payload["fractions"]
        expected = fractions["<=1us"] + fractions["<=5us"] + fractions["<=10us"]
        assert payload["under_10us"] == pytest.approx(expected)


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        # bfs needs enough trace for its 1.1 MB hot set to show reuse
        return run_experiment("fig8", trace_length=10_000, benchmarks=["bfs", "tpacf"])

    def test_row_structure(self, result):
        assert len(result.rows) == 3  # two benchmarks + Gmean
        assert len(result.headers) == 2 + 12

    def test_tpacf_flat(self, result):
        row = result.row_for("tpacf")
        for speedup in row[2:6]:
            assert speedup == pytest.approx(1.0, abs=0.06)

    def test_bfs_gains_on_c1(self, result):
        row = result.row_for("bfs")
        speedup_c1 = row[3]
        assert speedup_c1 > 1.15

    def test_total_power_ordering(self, result):
        """C2 < C3 < C1 < stt-baseline in total L2 power."""
        extras = result.extras
        assert (
            extras["gmean_total_c2"]
            < extras["gmean_total_c3"]
            < extras["gmean_total_c1"]
            < extras["gmean_total_stt"]
        )

    def test_reuse_of_precomputed_results(self):
        sims = fig8.run_simulations(trace_length=2000, benchmarks=["nn"])
        result = fig8.merge(["nn"], [fig8.payload_from_sims(sims["nn"])])
        assert result.row_for("nn")


class TestRunner:
    def test_registry(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig8",
            "regions", "scaling", "energy", "variance",
        }

    def test_run_experiment_by_name(self):
        result = run_experiment("table1")
        assert isinstance(result, ExperimentResult)

    def test_run_all_small(self):
        results, _ = run_battery(
            list(EXPERIMENTS), trace_length=1500, benchmarks=["nn"]
        )
        assert set(results) == set(EXPERIMENTS)
