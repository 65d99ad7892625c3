"""Bench: regenerate Fig. 5 (LR associativity sweep)."""

from repro.experiments.runner import run_experiment


def test_bench_fig5(run_once, bench_trace_length, show):
    result = run_once(run_experiment, "fig5", trace_length=bench_trace_length)
    show()
    show(result.render())
    # paper shape: utilization approaches fully-associative as ways grow,
    # and 2-way sits close enough to justify the paper's design choice
    assert result.extras["gmean_1way"] <= result.extras["gmean_2way"] * 1.01
    assert result.extras["gmean_2way"] <= result.extras["gmean_16way"] * 1.01
    assert result.extras["two_way_gap_to_full"] < 0.10
