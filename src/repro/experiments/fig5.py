"""Fig. 5 — LR associativity sweep, normalized to fully-associative.

For LR associativity in {1, 2, 4, 8, 16} (plus the fully-associative
reference), replays the suite through a C1-geometry two-part L2 and reports
LR *write utilization* — the share of data writes absorbed by the LR part —
normalized to the fully-associative organization.  The paper picks 2-way as
the sweet spot between utilization and lookup complexity.

Job decomposition
-----------------
One job per benchmark: :func:`compute` replays one benchmark at every
associativity (string keys, JSON-safe); :func:`merge` normalizes to the
fully-associative reference and assembles the table.  ``run`` is ``merge``
over inline ``compute`` calls, so serial and parallel paths share every
arithmetic step.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.config import config_c1
from repro.engine.soa_l2 import SoaTwoPartL2
from repro.experiments.common import (
    DEFAULT_TRACE_LENGTH,
    ExperimentResult,
    geomean,
    replay_through_l1,
)
from repro.workloads.suite import build_workload, suite_names

ASSOCIATIVITIES = (1, 2, 4, 8, 16)


def _build_twopart(lr_associativity: int) -> SoaTwoPartL2:
    l2cfg = config_c1().l2
    assert l2cfg.lr is not None
    return SoaTwoPartL2(
        hr_capacity_bytes=l2cfg.main.capacity_bytes,
        hr_associativity=l2cfg.main.associativity,
        lr_capacity_bytes=l2cfg.lr.capacity_bytes,
        lr_associativity=lr_associativity,
        line_size=l2cfg.line_size,
    )


def _full_associativity() -> int:
    l2cfg = config_c1().l2
    assert l2cfg.lr is not None
    return l2cfg.lr.capacity_bytes // l2cfg.line_size


def compute(
    benchmark: str,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 0,
) -> Dict[str, Any]:
    """One job: LR write utilization per associativity for ``benchmark``."""
    workload = build_workload(benchmark, num_accesses=trace_length, seed=seed)
    sweep = list(ASSOCIATIVITIES) + [_full_associativity()]
    utilization: Dict[str, float] = {}
    for assoc in sweep:
        l2 = _build_twopart(assoc)
        replay_through_l1(workload, l2.access)
        utilization[str(assoc)] = l2.lr_write_share
    return {"utilization": utilization}


def merge(names: Sequence[str], payloads: Sequence[Dict[str, Any]]) -> ExperimentResult:
    """Assemble per-benchmark payloads into the normalized sweep table."""
    full = _full_associativity()
    rows: List[List] = []
    norm_cols: Dict[int, List[float]] = {a: [] for a in ASSOCIATIVITIES}
    for name, payload in zip(names, payloads):
        utilization = payload["utilization"]
        reference = max(utilization[str(full)], 1e-9)
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


def run(
    trace_length: int = DEFAULT_TRACE_LENGTH,
    benchmarks: Optional[Iterable[str]] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Sweep LR associativity on the C1 geometry."""
    names = list(benchmarks) if benchmarks is not None else suite_names()
    payloads = [compute(name, trace_length=trace_length, seed=seed) for name in names]
    return merge(names, payloads)
