"""Fig. 4 — HR write-threshold sweep (TH in {1, 3, 7, 15}).

For each threshold, replays the suite through a C1-geometry two-part L2 and
reports, normalized to TH1:

* the LR-to-HR data-write ratio (top panel) — higher thresholds keep blocks
  in HR longer, so LR utilization drops;
* the total data-write count (bottom panel) — lower thresholds migrate more
  aggressively but the write overhead stays small, which is the paper's
  argument for TH = 1 (the free dirty-bit monitor).

Job decomposition
-----------------
Two jobs per benchmark.  TH1 is C1 itself, so its point comes from the
shared ``c1`` job (:func:`repro.experiments.fig6.compute`); :func:`compute`
replays the other thresholds on C1's L2 config and returns a JSON-safe
payload (threshold keys are strings so it survives the result cache's
JSON round-trip); :func:`merge` adds the C1 point, normalizes to TH1 and
assembles the table.
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

THRESHOLDS = (1, 3, 7, 15)


def compute(
    benchmark: str,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 0,
) -> Dict[str, Any]:
    """One job: the threshold sweep's non-C1 points for ``benchmark``."""
    workload = build_workload(benchmark, num_accesses=trace_length, seed=seed)
    c1 = config_c1().l2
    lr_hr_ratio: Dict[str, float] = {}
    total_writes: Dict[str, int] = {}
    for threshold in THRESHOLDS:
        if threshold == c1.write_threshold:
            continue  # the C1 job's point
        l2 = build_l2(replace(c1, write_threshold=threshold), engine="soa")
        replay_through_l1(workload, l2.access)
        lr_hr_ratio[str(threshold)] = l2.lr_data_writes / max(1, l2.hr_data_writes)
        total_writes[str(threshold)] = l2.total_data_writes
    return {"lr_hr_ratio": lr_hr_ratio, "total_writes": total_writes}


def merge(
    names: Sequence[str],
    payloads: Sequence[Dict[str, Any]],
    c1_payloads: Sequence[Dict[str, Any]],
) -> ExperimentResult:
    """Assemble sweep and C1 payloads into the TH1-normalized table."""
    c1_threshold = str(config_c1().l2.write_threshold)
    rows: List[List] = []
    norm_ratio_cols: Dict[int, List[float]] = {t: [] for t in THRESHOLDS}
    norm_total_cols: Dict[int, List[float]] = {t: [] for t in THRESHOLDS}
    for name, payload, c1 in zip(names, payloads, c1_payloads):
        lr_hr_ratio = dict(payload["lr_hr_ratio"])
        total_writes = dict(payload["total_writes"])
        lr_hr_ratio[c1_threshold] = c1["lr_data_writes"] / max(1, c1["hr_data_writes"])
        total_writes[c1_threshold] = c1["total_data_writes"]
        base_ratio = max(lr_hr_ratio["1"], 1e-9)
        base_total = max(total_writes["1"], 1)
        row: List = [name]
        for threshold in THRESHOLDS:
            value = lr_hr_ratio[str(threshold)] / base_ratio
            row.append(round(value, 3))
            norm_ratio_cols[threshold].append(max(value, 1e-9))
        for threshold in THRESHOLDS:
            value = total_writes[str(threshold)] / base_total
            row.append(round(value, 3))
            norm_total_cols[threshold].append(max(value, 1e-9))
        rows.append(row)
    avg_row: List = ["AVG"]
    for threshold in THRESHOLDS:
        avg_row.append(round(geomean(norm_ratio_cols[threshold]), 3))
    for threshold in THRESHOLDS:
        avg_row.append(round(geomean(norm_total_cols[threshold]), 3))
    rows.append(avg_row)

    extras = {
        # TH1 maximizes LR utilization: higher thresholds must not exceed 1
        "avg_lr_ratio_th3": geomean(norm_ratio_cols[3]),
        "avg_lr_ratio_th15": geomean(norm_ratio_cols[15]),
        # ...while TH1's extra migrations barely inflate total writes
        "avg_write_overhead_th1_vs_th15": (
            geomean(norm_total_cols[1]) / geomean(norm_total_cols[15])
        ),
    }
    headers = (
        ["benchmark"]
        + [f"lr_hr_ratio_TH{t}" for t in THRESHOLDS]
        + [f"total_writes_TH{t}" for t in THRESHOLDS]
    )
    return ExperimentResult(
        name="Fig 4: HR write-threshold sweep (normalized to TH1)",
        headers=headers,
        rows=rows,
        extras=extras,
    )

