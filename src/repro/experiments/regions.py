"""Region-aggregated view of the Fig. 8 evaluation.

The paper discusses Fig. 8a in terms of four benchmark regions (insensitive
/ register-limited / cache+register / cache-friendly).  This experiment
aggregates the per-benchmark simulations into one row per region so the
regional story is directly checkable: region 1 flat everywhere, region 2
moving only with the register file (C2/C3), regions 3-4 moving with cache
capacity (C1/C3).

Job decomposition
-----------------
This experiment reuses the Fig. 8 per-benchmark jobs (:func:`fig8.compute`)
verbatim — :func:`merge` only regroups their payloads by region — so the
parallel runner can deduplicate the simulations with ``fig8``/``variance``
and serve them from the shared result cache.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.experiments import fig8
from repro.experiments.common import ExperimentResult, geomean
from repro.workloads.profiles import PROFILES

REGION_LABELS = {
    1: "1: insensitive",
    2: "2: register-limited",
    3: "3: cache+register",
    4: "4: cache-friendly",
}


def merge(names: Sequence[str], payloads: Sequence[Dict[str, Any]]) -> ExperimentResult:
    """Aggregate Fig. 8 job payloads into one gmean-speedup row per region."""
    by_region: Dict[int, Dict[str, List[float]]] = {}
    for name, payload in zip(names, payloads):
        sims = payload["sims"]
        region = PROFILES[name].region
        base = sims["baseline"]
        bucket = by_region.setdefault(
            region, {c: [] for c in fig8.CONFIG_ORDER}
        )
        for config_name in fig8.CONFIG_ORDER:
            bucket[config_name].append(sims[config_name]["ipc"] / base["ipc"])

    rows: List[List] = []
    extras: Dict[str, float] = {}
    for region in sorted(by_region):
        bucket = by_region[region]
        row: List = [REGION_LABELS.get(region, str(region)),
                     len(bucket[fig8.CONFIG_ORDER[0]])]
        for config_name in fig8.CONFIG_ORDER:
            value = geomean(bucket[config_name])
            row.append(round(value, 3))
            extras[f"region{region}_{config_name}"] = value
        rows.append(row)

    return ExperimentResult(
        name="Fig 8a by region: gmean speedup vs SRAM baseline",
        headers=["region", "benchmarks"]
        + [f"speedup_{c}" for c in fig8.CONFIG_ORDER],
        rows=rows,
        extras=extras,
    )

