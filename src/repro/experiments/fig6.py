"""Fig. 6 — rewrite-interval distribution in the LR part.

Replays the suite through a C1-geometry two-part L2 with interval tracking
on and buckets the times between successive demand writes to LR-resident
lines.  The paper's observation — most LR rewrites land within ~10 us —
justifies microsecond-scale LR retention.

Job decomposition
-----------------
One job per benchmark, kind ``c1``: :func:`compute` replays one benchmark
through the C1 L2 and returns the bucketed fractions, the energy-ledger
buckets and the data-write counts (JSON-safe); :func:`merge` averages the
fractions across benchmarks and assembles the table.  This is the one C1
replay per benchmark: :mod:`~repro.experiments.energy` merges its ledger,
and :mod:`~repro.experiments.fig4` and :mod:`~repro.experiments.fig5`
their C1 point.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np

from repro.analysis.intervals import REWRITE_BUCKETS, rewrite_interval_distribution
from repro.config import config_c1
from repro.core.factory import build_l2
from repro.experiments.common import (
    DEFAULT_TRACE_LENGTH,
    ExperimentResult,
    replay_through_l1,
)
from repro.workloads.suite import build_workload


def compute(
    benchmark: str,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 0,
) -> Dict[str, Any]:
    """One job: C1's rewrite-interval buckets, energy ledger and write counts."""
    workload = build_workload(benchmark, num_accesses=trace_length, seed=seed)
    l2 = build_l2(config_c1().l2, track_intervals=True, engine="soa")
    replay_through_l1(workload, l2.access)
    distribution = rewrite_interval_distribution(l2.rewrite_intervals)
    fractions = distribution.fractions()
    ledger = l2.energy
    return {
        "fractions": {label: fractions[label] for label, _ in REWRITE_BUCKETS},
        "total": distribution.total,
        "under_10us": distribution.fraction_under(10e-6),
        "demand_j": ledger.demand_j,
        "migration_j": ledger.migration_j,
        "refresh_j": ledger.refresh_j,
        "fill_j": ledger.fill_j,
        "total_j": ledger.total_j,
        "hr_data_writes": l2.hr_data_writes,
        "lr_data_writes": l2.lr_data_writes,
        "total_data_writes": l2.total_data_writes,
        "lr_write_share": l2.lr_write_share,
        "counters": {"rewrite_samples": distribution.total},
    }


def merge(names: Sequence[str], payloads: Sequence[Dict[str, Any]]) -> ExperimentResult:
    """Assemble per-benchmark payloads into the Fig. 6 distribution table."""
    rows: List[List] = []
    all_fractions = []
    under_10us_shares = []
    for name, payload in zip(names, payloads):
        fractions = payload["fractions"]
        rows.append(
            [name]
            + [round(fractions[label], 3) for label, _ in REWRITE_BUCKETS]
            + [payload["total"]]
        )
        if payload["total"]:
            all_fractions.append([fractions[label] for label, _ in REWRITE_BUCKETS])
            under_10us_shares.append(payload["under_10us"])
    if all_fractions:
        avg = np.mean(np.asarray(all_fractions), axis=0)
        rows.append(["AVG"] + [round(float(v), 3) for v in avg] + ["-"])
    extras = {
        "avg_fraction_under_10us": float(np.mean(under_10us_shares))
        if under_10us_shares else 0.0,
        "min_fraction_under_10us": float(np.min(under_10us_shares))
        if under_10us_shares else 0.0,
    }
    return ExperimentResult(
        name="Fig 6: LR rewrite-interval distribution",
        headers=["benchmark"] + [label for label, _ in REWRITE_BUCKETS] + ["samples"],
        rows=rows,
        extras=extras,
    )
