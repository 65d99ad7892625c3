"""Benches: C1 energy breakdown and seed robustness (extensions)."""

from repro.experiments import fig8, variance
from repro.experiments.runner import run_experiment

ROBUSTNESS_BENCHMARKS = (
    "bfs", "kmeans", "stencil", "tpacf", "mri-gridding",
    "hotspot", "lbm", "streamcluster",
)


def test_bench_energy_breakdown(run_once, bench_trace_length, show):
    result = run_once(run_experiment, "energy", trace_length=bench_trace_length)
    show()
    show(result.render())
    # the architecture's bet: migration + refresh stay a modest slice of
    # dynamic energy.  The worst cases are the even-write streaming codes
    # (lbm/stencil/cfd), whose rewrites churn the LR<->HR boundary — the
    # same apps the paper concedes cost extra dynamic energy.
    assert result.extras["max_overhead_share"] < 0.45
    assert result.extras["mean_overhead_share"] < 0.20
    for row in result.rows:
        shares = row[1:5]
        assert abs(sum(shares) - 1.0) < 0.02, f"{row[0]}: shares must sum to 1"
    # write-skewed cache-friendly apps keep overheads small
    bfs = next(row for row in result.rows if row[0] == "bfs")
    assert bfs[2] + bfs[3] < 0.15


def test_bench_seed_robustness(run_once, show):
    def sweep():
        return variance.merge(ROBUSTNESS_BENCHMARKS, [
            (seed, [fig8.compute(name, trace_length=10_000, seed=seed)
                    for name in ROBUSTNESS_BENCHMARKS])
            for seed in (0, 1, 2)
        ])

    result = run_once(sweep)
    show()
    show(result.render())
    extras = result.extras
    # the headline orderings must hold with margin across seeds
    assert extras["gmean_speedup_c1_spread"] < 0.08
    assert extras["gmean_total_c1_spread"] < 0.08
    # C1 beats the naive STT baseline at every seed
    assert (
        extras["gmean_speedup_c1_mean"] - extras["gmean_speedup_c1_spread"]
        > extras["gmean_speedup_stt_mean"] - 0.02
    )
    # total-power win of C2 is seed-stable
    assert extras["gmean_total_c2_mean"] + extras["gmean_total_c2_spread"] < 0.8
