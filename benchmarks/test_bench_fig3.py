"""Bench: regenerate Fig. 3 (inter/intra-set write COV per benchmark)."""

from repro.experiments.runner import run_experiment


def test_bench_fig3(run_once, bench_trace_length, show):
    result = run_once(run_experiment, "fig3", trace_length=bench_trace_length)
    show()
    show(result.render())
    # paper shape: large spread across benchmarks, with irregular apps
    # exceeding 100% inter-set COV and regular streaming apps near zero
    assert result.extras["max_inter_pct"] > 100.0
    assert result.extras["min_inter_pct"] < 30.0
    # bfs-style benchmarks must out-skew stencil-style ones
    assert result.row_for("bfs")[2] > 3 * result.row_for("stencil")[2]
