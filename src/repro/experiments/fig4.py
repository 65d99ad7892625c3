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
One job per benchmark: :func:`compute` replays one benchmark at every
threshold and returns a JSON-safe payload (threshold keys are strings so
the payload survives a JSON round-trip through the result cache);
:func:`merge` normalizes to TH1 and assembles the table.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.config import config_c1
from repro.engine.soa_l2 import SoaTwoPartL2
from repro.experiments.common import (
    DEFAULT_TRACE_LENGTH,
    ExperimentResult,
    geomean,
    replay_through_l1,
)
from repro.workloads.suite import build_workload

THRESHOLDS = (1, 3, 7, 15)


def _build_twopart(threshold: int) -> SoaTwoPartL2:
    l2cfg = config_c1().l2
    assert l2cfg.lr is not None
    return SoaTwoPartL2(
        hr_capacity_bytes=l2cfg.main.capacity_bytes,
        hr_associativity=l2cfg.main.associativity,
        lr_capacity_bytes=l2cfg.lr.capacity_bytes,
        lr_associativity=l2cfg.lr.associativity,
        line_size=l2cfg.line_size,
        write_threshold=threshold,
    )


def compute(
    benchmark: str,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 0,
) -> Dict[str, Any]:
    """One job: raw threshold-sweep measurements for ``benchmark``."""
    workload = build_workload(benchmark, num_accesses=trace_length, seed=seed)
    lr_hr_ratio: Dict[str, float] = {}
    total_writes: Dict[str, int] = {}
    for threshold in THRESHOLDS:
        l2 = _build_twopart(threshold)
        replay_through_l1(workload, l2.access)
        hr_writes = max(1, l2.hr_data_writes)
        lr_hr_ratio[str(threshold)] = l2.lr_data_writes / hr_writes
        total_writes[str(threshold)] = l2.total_data_writes
    return {
        "lr_hr_ratio": lr_hr_ratio,
        "total_writes": total_writes,
        "counters": {"total_data_writes_th1": total_writes["1"]},
    }


def merge(names: Sequence[str], payloads: Sequence[Dict[str, Any]]) -> ExperimentResult:
    """Assemble per-benchmark payloads into the TH1-normalized table."""
    rows: List[List] = []
    norm_ratio_cols: Dict[int, List[float]] = {t: [] for t in THRESHOLDS}
    norm_total_cols: Dict[int, List[float]] = {t: [] for t in THRESHOLDS}
    for name, payload in zip(names, payloads):
        lr_hr_ratio = payload["lr_hr_ratio"]
        total_writes = payload["total_writes"]
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

