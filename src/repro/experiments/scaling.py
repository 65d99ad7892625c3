"""Technology-scaling study (extension, not a paper figure).

The paper motivates STT-RAM with the scaling trend: "entering deep nanometer
technology ... leakage current increases ... per technology node, SRAM
arrays confront serious scalability and power limitations."  This experiment
quantifies that motivation inside the model: it re-runs the baseline-vs-C1
comparison at 45 nm, 40 nm (the paper's node) and 32 nm and reports how the
total-L2-power advantage of the two-part STT-RAM design grows as SRAM
leakage worsens.

Job decomposition
-----------------
One job per benchmark: :func:`compute` simulates one benchmark at every
technology node (baseline and C1) and returns the per-node ratios
(JSON-safe); :func:`merge` takes the geometric means per node in benchmark
order.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Sequence

from repro.areapower.technology import TECH_32NM, TECH_40NM, TECH_45NM
from repro.config import baseline_sram, config_c1
from repro.experiments.common import (
    DEFAULT_TRACE_LENGTH,
    ExperimentResult,
    geomean,
)
from repro.gpu.simulator import simulate
from repro.workloads.suite import build_workload

NODES = (TECH_45NM, TECH_40NM, TECH_32NM)

#: A small representative mix: one cache-friendly, one insensitive.
DEFAULT_BENCHMARKS = ("bfs", "stencil")


def compute(
    benchmark: str,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 0,
) -> Dict[str, Any]:
    """One job: baseline-vs-C1 ratios for ``benchmark`` at every node."""
    workload = build_workload(benchmark, num_accesses=trace_length, seed=seed)
    nodes: Dict[str, Dict[str, float]] = {}
    for tech in NODES:
        base_cfg = dataclasses.replace(baseline_sram(), tech=tech)
        c1_cfg = dataclasses.replace(config_c1(), tech=tech)
        base = simulate(base_cfg, workload)
        c1 = simulate(c1_cfg, workload)
        nodes[tech.name] = {
            "total_ratio": c1.total_power_ratio(base),
            "speedup": c1.speedup_over(base),
            "leak_ratio": c1.l2_leakage_power_w / base.l2_leakage_power_w,
        }
    return {"nodes": nodes}


def merge(names: Sequence[str], payloads: Sequence[Dict[str, Any]]) -> ExperimentResult:
    """Assemble per-benchmark payloads into the per-node scaling table."""
    rows: List[List] = []
    ratios_by_node = {}
    for tech in NODES:
        total_ratios = [p["nodes"][tech.name]["total_ratio"] for p in payloads]
        speedups = [p["nodes"][tech.name]["speedup"] for p in payloads]
        leak_ratio = payloads[-1]["nodes"][tech.name]["leak_ratio"]
        ratio = geomean(total_ratios)
        ratios_by_node[tech.name] = ratio
        rows.append([
            tech.name,
            round(geomean(speedups), 3),
            round(ratio, 3),
            round(leak_ratio, 3),
        ])
    extras = {
        "total_ratio_45nm": ratios_by_node["45nm"],
        "total_ratio_40nm": ratios_by_node["40nm"],
        "total_ratio_32nm": ratios_by_node["32nm"],
    }
    return ExperimentResult(
        name="Scaling study: C1 vs SRAM baseline across nodes",
        headers=["node", "c1_speedup", "c1_total_power_ratio",
                 "c1_leakage_ratio"],
        rows=rows,
        extras=extras,
    )

