"""L2 dynamic-energy breakdown on the C1 architecture (extension).

Not a paper figure — it opens the hood on where C1's dynamic energy goes:
demand accesses (probes + data), HR<->LR migrations, LR refresh, and fills.
The architecture's bet is that migration and refresh overheads stay small
next to the demand-energy savings of serving the WWS from LR; this
experiment checks that bet per benchmark.

Job decomposition
-----------------
This experiment reuses the C1 per-benchmark jobs (:func:`fig6.compute`,
job kind ``c1``) verbatim: their C1 replay also records the energy
ledger, and :func:`merge` turns its raw buckets (JSON-safe joules) into
shares and aggregates.  The parallel runner deduplicates the replays with
``fig4``, ``fig5`` and ``fig6`` and serves them from the result cache.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.experiments.common import ExperimentResult


def merge(names: Sequence[str], payloads: Sequence[Dict[str, Any]]) -> ExperimentResult:
    """Assemble the ledgers of C1 job payloads into the share table."""
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
