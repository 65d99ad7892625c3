"""Fig. 3 — inter- and intra-set write variation (COV) per benchmark.

Replays each benchmark through the L1s into a baseline-geometry L2 array and
reports the write COVs.  The paper's observation: benchmarks differ wildly —
irregular ones (bfs-like) exceed 100% inter-set COV while stencil-like codes
write evenly — which motivates a dedicated write-favouring (LR) region.

Job decomposition
-----------------
One job per benchmark: :func:`compute` measures a single benchmark and
returns a JSON-safe payload; :func:`merge` deterministically assembles the
payloads (in benchmark order) into the :class:`ExperimentResult`.
:func:`repro.experiments.parallel.run_battery` runs the jobs, in process or
on a pool, and folds their payloads through :func:`merge`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.analysis.cov import write_variation
from repro.config import baseline_sram
from repro.engine.soa_array import SoaCacheArray
from repro.experiments.common import (
    DEFAULT_TRACE_LENGTH,
    ExperimentResult,
    geomean,
    replay_through_l1,
)
from repro.workloads.profiles import PROFILES
from repro.workloads.suite import build_workload


def compute(
    benchmark: str,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 0,
) -> Dict[str, Any]:
    """One job: write COVs for ``benchmark`` on the baseline L2 geometry.

    Returns a JSON-safe payload (floats/ints only) so results can be cached
    on disk and shipped across process boundaries unchanged.
    """
    workload = build_workload(benchmark, num_accesses=trace_length, seed=seed)
    main = baseline_sram().l2.main
    l2 = SoaCacheArray(
        main.capacity_bytes, main.associativity, main.line_size, name="fig3-l2"
    )
    replay_through_l1(workload, l2.access)
    variation = write_variation(l2)
    pct = variation.as_percentages()
    return {
        "inter_set_pct": pct["inter_set_pct"],
        "intra_set_pct": pct["intra_set_pct"],
        "total_writes": variation.total_writes,
        "counters": {"l2_writes": variation.total_writes},
    }


def merge(names: Sequence[str], payloads: Sequence[Dict[str, Any]]) -> ExperimentResult:
    """Assemble per-benchmark payloads (in order) into the Fig. 3 table."""
    rows: List[List] = []
    inter_values, intra_values = [], []
    for name, payload in zip(names, payloads):
        rows.append([
            name,
            PROFILES[name].region,
            round(payload["inter_set_pct"], 1),
            round(payload["intra_set_pct"], 1),
            payload["total_writes"],
        ])
        inter_values.append(max(payload["inter_set_pct"], 1e-9))
        intra_values.append(max(payload["intra_set_pct"], 1e-9))
    rows.append([
        "Gmean", "-", round(geomean(inter_values), 1), round(geomean(intra_values), 1), "-",
    ])
    extras = {
        "max_inter_pct": max(inter_values),
        "min_inter_pct": min(inter_values),
        "gmean_inter_pct": geomean(inter_values),
        "gmean_intra_pct": geomean(intra_values),
    }
    return ExperimentResult(
        name="Fig 3: inter/intra-set write COV",
        headers=["benchmark", "region", "inter_set_cov_pct", "intra_set_cov_pct",
                 "l2_writes"],
        rows=rows,
        extras=extras,
    )

