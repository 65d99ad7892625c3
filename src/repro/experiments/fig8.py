"""Fig. 8 — the headline evaluation: speedup, dynamic power, total power.

Runs the full suite on the five Table 2 systems and reports, per benchmark
and as geometric means, everything the paper's Fig. 8 plots normalized to
the SRAM baseline:

* (a) IPC speedup,
* (b) L2 dynamic power,
* (c) L2 total power.

Shape targets (see DESIGN.md): C1 wins on average (paper: +16%, peaks over
2x), the naive STT baseline trails C1 and hurts some write-heavy apps, C2
wins total power by the largest margin, C3 sits between C1 and C2.

Job decomposition
-----------------
One job per benchmark: :func:`compute` simulates one benchmark on all five
Table 2 systems and returns the per-config metrics the normalization needs
(JSON-safe floats); :func:`merge` computes the ratios and geometric means.
The same per-benchmark jobs also feed the ``regions`` and
``variance`` experiments, which lets the parallel runner deduplicate and
cache the expensive simulations across all three.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.config import all_configs
from repro.experiments.common import (
    DEFAULT_TRACE_LENGTH,
    ExperimentResult,
    geomean,
)
from repro.gpu.metrics import SimulationResult
from repro.gpu.simulator import simulate
from repro.workloads.profiles import PROFILES
from repro.workloads.suite import build_workload, suite_names

CONFIG_ORDER = ("stt-baseline", "C1", "C2", "C3")


def run_simulations(
    trace_length: int = DEFAULT_TRACE_LENGTH,
    benchmarks: Optional[Iterable[str]] = None,
    seed: int = 0,
) -> Dict[str, Dict[str, SimulationResult]]:
    """All (benchmark, config) simulation results, keyed [benchmark][config]."""
    names = list(benchmarks) if benchmarks is not None else suite_names()
    configs = all_configs()
    results: Dict[str, Dict[str, SimulationResult]] = {}
    for name in names:
        workload = build_workload(name, num_accesses=trace_length, seed=seed)
        results[name] = {
            config_name: simulate(config, workload)
            for config_name, config in configs.items()
        }
    return results


def payload_from_sims(per_config: Dict[str, SimulationResult]) -> Dict[str, Any]:
    """Project one benchmark's simulations to the JSON-safe job payload."""
    return {
        "sims": {
            config_name: {
                "ipc": r.ipc,
                "dynamic_power_w": r.l2_dynamic_power_w,
                "leakage_power_w": r.l2_leakage_power_w,
            }
            for config_name, r in per_config.items()
        },
        "counters": {
            "l2_requests": sum(r.l2_requests for r in per_config.values()),
            "dram_accesses": sum(r.dram_accesses for r in per_config.values()),
        },
    }


def compute(
    benchmark: str,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 0,
) -> Dict[str, Any]:
    """One job: simulate ``benchmark`` on all Table 2 configs."""
    per_config = run_simulations(trace_length, [benchmark], seed)[benchmark]
    return payload_from_sims(per_config)


def merge(names: Sequence[str], payloads: Sequence[Dict[str, Any]]) -> ExperimentResult:
    """Assemble per-benchmark payloads into the Fig. 8 table."""
    rows: List[List] = []
    speedups: Dict[str, List[float]] = {c: [] for c in CONFIG_ORDER}
    dynamics: Dict[str, List[float]] = {c: [] for c in CONFIG_ORDER}
    totals: Dict[str, List[float]] = {c: [] for c in CONFIG_ORDER}
    for name, payload in zip(names, payloads):
        sims = payload["sims"]
        base = sims["baseline"]
        base_total = base["dynamic_power_w"] + base["leakage_power_w"]
        row: List = [name, PROFILES[name].region]
        for config_name in CONFIG_ORDER:
            speedup = sims[config_name]["ipc"] / base["ipc"]
            row.append(round(speedup, 3))
            speedups[config_name].append(speedup)
        for config_name in CONFIG_ORDER:
            ratio = sims[config_name]["dynamic_power_w"] / base["dynamic_power_w"]
            row.append(round(ratio, 3))
            dynamics[config_name].append(ratio)
        for config_name in CONFIG_ORDER:
            r = sims[config_name]
            ratio = (r["dynamic_power_w"] + r["leakage_power_w"]) / base_total
            row.append(round(ratio, 3))
            totals[config_name].append(ratio)
        rows.append(row)

    gmean_row: List = ["Gmean", "-"]
    for bundle in (speedups, dynamics, totals):
        for config_name in CONFIG_ORDER:
            gmean_row.append(round(geomean(bundle[config_name]), 3))
    rows.append(gmean_row)

    extras = {
        "gmean_speedup_stt": geomean(speedups["stt-baseline"]),
        "gmean_speedup_c1": geomean(speedups["C1"]),
        "gmean_speedup_c2": geomean(speedups["C2"]),
        "gmean_speedup_c3": geomean(speedups["C3"]),
        "max_speedup_c1": max(speedups["C1"]),
        "gmean_dynamic_c1": geomean(dynamics["C1"]),
        "gmean_dynamic_stt": geomean(dynamics["stt-baseline"]),
        "gmean_total_c1": geomean(totals["C1"]),
        "gmean_total_c2": geomean(totals["C2"]),
        "gmean_total_c3": geomean(totals["C3"]),
        "gmean_total_stt": geomean(totals["stt-baseline"]),
    }
    headers = (
        ["benchmark", "region"]
        + [f"speedup_{c}" for c in CONFIG_ORDER]
        + [f"dynpow_{c}" for c in CONFIG_ORDER]
        + [f"totpow_{c}" for c in CONFIG_ORDER]
    )
    return ExperimentResult(
        name="Fig 8: speedup / dynamic power / total power vs SRAM baseline",
        headers=headers,
        rows=rows,
        extras=extras,
    )

