"""Fig. 5 — LR associativity sweep, normalized to fully-associative.

For LR associativity in {1, 2, 4, 8, 16} (plus the fully-associative
reference), replays the suite through a C1-geometry two-part L2 and reports
LR *write utilization* — the share of data writes absorbed by the LR part —
normalized to the fully-associative organization.  The paper picks 2-way as
the sweet spot between utilization and lookup complexity.

Job decomposition
-----------------
Two jobs per benchmark.  2-way is C1 itself, so its point comes from the
shared ``c1`` job (:func:`repro.experiments.fig6.compute`); :func:`compute`
replays the other organizations on C1's L2 config (string keys,
JSON-safe); :func:`merge` adds the C1 point, normalizes to the
fully-associative reference and assembles the table.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Sequence

from repro.config import config_c1
from repro.core.factory import build_l2
from repro.experiments.common import (
    DEFAULT_TRACE_LENGTH,
    ExperimentResult,
    geomean,
    replay_through_l1,
)
from repro.workloads.suite import build_workload

ASSOCIATIVITIES = (1, 2, 4, 8, 16)


def compute(
    benchmark: str,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 0,
) -> Dict[str, Any]:
    """One job: LR write utilization per non-C1 associativity for ``benchmark``."""
    workload = build_workload(benchmark, num_accesses=trace_length, seed=seed)
    c1 = config_c1().l2
    lr = c1.lr
    utilization: Dict[str, float] = {}
    for assoc in ASSOCIATIVITIES + (lr.capacity_bytes // lr.line_size,):
        if assoc == lr.associativity:
            continue  # the C1 job's point
        l2 = build_l2(replace(c1, lr=replace(lr, associativity=assoc)), engine="soa")
        replay_through_l1(workload, l2.access)
        utilization[str(assoc)] = l2.lr_write_share
    return {"utilization": utilization}


def merge(
    names: Sequence[str],
    payloads: Sequence[Dict[str, Any]],
    c1_payloads: Sequence[Dict[str, Any]],
) -> ExperimentResult:
    """Assemble sweep and C1 payloads into the normalized sweep table."""
    lr = config_c1().l2.lr
    c1_assoc, full = str(lr.associativity), str(lr.capacity_bytes // lr.line_size)
    rows: List[List] = []
    norm_cols: Dict[int, List[float]] = {a: [] for a in ASSOCIATIVITIES}
    for name, payload, c1 in zip(names, payloads, c1_payloads):
        utilization = {**payload["utilization"], c1_assoc: c1["lr_write_share"]}
        reference = max(utilization[full], 1e-9)
        row: List = [name]
        for assoc in ASSOCIATIVITIES:
            value = utilization[str(assoc)] / reference
            row.append(round(value, 3))
            norm_cols[assoc].append(max(value, 1e-9))
        rows.append(row)
    rows.append(
        ["Gmean"] + [round(geomean(norm_cols[a]), 3) for a in ASSOCIATIVITIES]
    )

    gmeans = {a: geomean(norm_cols[a]) for a in ASSOCIATIVITIES}
    extras = {
        "gmean_1way": gmeans[1],
        "gmean_2way": gmeans[2],
        "gmean_16way": gmeans[16],
        # the paper's claim: 2-way sits close to fully-associative
        "two_way_gap_to_full": 1.0 - gmeans[2],
    }
    return ExperimentResult(
        name="Fig 5: LR associativity (normalized to fully-associative)",
        headers=["benchmark"] + [f"{a}-way" for a in ASSOCIATIVITIES],
        rows=rows,
        extras=extras,
    )

