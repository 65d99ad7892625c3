"""Bench: regenerate Fig. 6 (LR rewrite-interval distribution)."""

from repro.experiments.runner import run_experiment


def test_bench_fig6(run_once, bench_trace_length, show):
    result = run_once(run_experiment, "fig6", trace_length=bench_trace_length)
    show()
    show(result.render())
    # paper shape: the bulk of LR rewrites land within ~10 us, so
    # microsecond-scale LR retention plus refresh suffices
    assert result.extras["avg_fraction_under_10us"] > 0.6
