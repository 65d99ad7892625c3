"""L2 dynamic-energy breakdown on the C1 architecture (extension).

Not a paper figure — it opens the hood on where C1's dynamic energy goes:
demand accesses (probes + data), HR<->LR migrations, LR refresh, and fills.
The architecture's bet is that migration and refresh overheads stay small
next to the demand-energy savings of serving the WWS from LR; this
experiment checks that bet per benchmark.

Job decomposition
-----------------
One job per benchmark: :func:`compute` replays one benchmark and returns
the raw energy-ledger buckets (JSON-safe joules); :func:`merge` turns them
into shares and aggregates.  ``run`` is ``merge`` over inline ``compute``
calls, so serial and parallel paths share every arithmetic step.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.config import config_c1
from repro.core.factory import build_l2
from repro.core.twopart import TwoPartSTTL2
from repro.experiments.common import (
    DEFAULT_TRACE_LENGTH,
    ExperimentResult,
    replay_through_l1,
)
from repro.workloads.suite import build_workload, suite_names


def compute(
    benchmark: str,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 0,
) -> Dict[str, Any]:
    """One job: C1 energy-ledger buckets for ``benchmark``."""
    workload = build_workload(benchmark, num_accesses=trace_length, seed=seed)
    l2 = build_l2(config_c1().l2, engine="soa")
    assert isinstance(l2, TwoPartSTTL2)
    replay_through_l1(workload, l2.access)
    ledger = l2.energy
    return {
        "demand_j": ledger.demand_j,
        "migration_j": ledger.migration_j,
        "refresh_j": ledger.refresh_j,
        "fill_j": ledger.fill_j,
        "total_j": ledger.total_j,
    }


def merge(names: Sequence[str], payloads: Sequence[Dict[str, Any]]) -> ExperimentResult:
    """Assemble per-benchmark ledger payloads into the share table."""
    rows: List[List] = []
    overhead_shares = []
    for name, payload in zip(names, payloads):
        total = max(payload["total_j"], 1e-18)
        overhead = (payload["migration_j"] + payload["refresh_j"]) / total
        overhead_shares.append(overhead)
        rows.append([
            name,
            round(payload["demand_j"] / total, 3),
            round(payload["migration_j"] / total, 3),
            round(payload["refresh_j"] / total, 3),
            round(payload["fill_j"] / total, 3),
            round(payload["total_j"] * 1e6, 2),
        ])
    extras = {
        "max_overhead_share": max(overhead_shares) if overhead_shares else 0.0,
        "mean_overhead_share": (
            sum(overhead_shares) / len(overhead_shares) if overhead_shares else 0.0
        ),
    }
    return ExperimentResult(
        name="C1 dynamic-energy breakdown (shares of total)",
        headers=["benchmark", "demand", "migration", "refresh", "fill",
                 "total_uJ"],
        rows=rows,
        extras=extras,
    )


def run(
    trace_length: int = DEFAULT_TRACE_LENGTH,
    benchmarks: Optional[Iterable[str]] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Energy-bucket shares per benchmark on the C1 geometry."""
    names = list(benchmarks) if benchmarks is not None else suite_names()
    payloads = [compute(name, trace_length=trace_length, seed=seed) for name in names]
    return merge(names, payloads)
