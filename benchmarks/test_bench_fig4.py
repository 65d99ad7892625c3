"""Bench: regenerate Fig. 4 (HR write-threshold sweep)."""

from repro.experiments.runner import run_experiment


def test_bench_fig4(run_once, bench_trace_length, show):
    result = run_once(run_experiment, "fig4", trace_length=bench_trace_length)
    show()
    show(result.render())
    # paper shape: decreasing the threshold raises LR utilization...
    assert result.extras["avg_lr_ratio_th3"] < 1.0
    assert result.extras["avg_lr_ratio_th15"] < result.extras["avg_lr_ratio_th3"]
    # ...without noticeable write overhead (justifies TH = 1)
    assert result.extras["avg_write_overhead_th1_vs_th15"] < 1.10
