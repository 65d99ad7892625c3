"""Bench: regenerate Fig. 8 — the headline speedup/power evaluation.

This is the expensive one: the full 16-benchmark suite on all five Table 2
systems (80 simulations).  The assertions encode the paper's shape claims:

* C1 improves IPC on average (paper: +16%) with a >1.5x peak, and never
  degrades a benchmark;
* the naive STT baseline trails C1 and *does* degrade some write-heavy
  benchmarks;
* total L2 power: C2 < C3 < C1 < SRAM baseline < STT baseline;
* dynamic L2 power: every STT organization costs more than SRAM, the naive
  STT baseline the most.
"""

import pytest

from repro.experiments import fig8
from repro.experiments.parallel import run_battery


def test_bench_fig8(run_once, bench_trace_length, show):
    results, _ = run_once(
        run_battery, ["fig8", "regions"], trace_length=bench_trace_length
    )
    result = results["fig8"]
    show()
    show(result.render())
    extras = result.extras

    # (a) speedups
    assert 1.08 < extras["gmean_speedup_c1"] < 1.35
    assert extras["gmean_speedup_stt"] < extras["gmean_speedup_c1"]
    assert extras["max_speedup_c1"] > 1.5
    for row in result.rows[:-1]:
        speedup_c1 = row[3]
        assert speedup_c1 >= 0.97, f"{row[0]}: C1 must not degrade performance"

    # the naive STT baseline must degrade at least one write-heavy benchmark
    stt_speedups = [row[2] for row in result.rows[:-1]]
    assert min(stt_speedups) < 0.97

    # (b) dynamic power: STT organizations all cost more than SRAM; the
    # naive baseline costs the most
    assert extras["gmean_dynamic_stt"] > extras["gmean_dynamic_c1"] > 1.0

    # (c) total power ordering
    assert (
        extras["gmean_total_c2"]
        < extras["gmean_total_c3"]
        < extras["gmean_total_c1"]
        < 1.0
        < extras["gmean_total_stt"]
    )

    # region-aggregated view of the same simulations (the paper's framing)
    by_region = results["regions"]
    show()
    show(by_region.render())
    region_extras = by_region.extras
    # region 1 flat on every system
    for config in fig8.CONFIG_ORDER:
        assert region_extras[f"region1_{config}"] == pytest.approx(1.0, abs=0.06)
    # region 2 responds to the register file, not the cache
    assert region_extras["region2_C2"] > region_extras["region2_C1"] - 0.02
    # region 4 responds to cache capacity: C1 beats C2 clearly
    assert region_extras["region4_C1"] > region_extras["region4_C2"] + 0.1
