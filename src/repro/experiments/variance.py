"""Seed-robustness study of the headline result (extension).

The traces are synthetic, so a fair question is whether the Fig. 8 gmeans
are artifacts of one random seed.  This experiment re-runs the evaluation
across several generator seeds and reports, per headline metric, the mean
and spread — the shape claims should hold for *every* seed.

Job decomposition
-----------------
One job per (benchmark, seed) pair, reusing :func:`fig8.compute` verbatim:
:func:`merge` folds each seed's payloads through :func:`fig8.merge` and
then takes the cross-seed statistics.  Because the seed-``s`` jobs are the
same jobs ``fig8`` itself runs, the parallel runner deduplicates them and
a warm result cache makes the whole study incremental.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence, Tuple

from repro.experiments import fig8
from repro.experiments.common import ExperimentResult

#: Headline metrics tracked across seeds.
METRICS = (
    "gmean_speedup_stt",
    "gmean_speedup_c1",
    "gmean_speedup_c2",
    "gmean_speedup_c3",
    "gmean_total_c1",
    "gmean_total_c2",
    "gmean_total_stt",
)


def default_seeds(seed: int) -> Tuple[int, int, int]:
    """The swept seed set: three consecutive seeds starting at ``seed``."""
    return (seed, seed + 1, seed + 2)


def _mean_std(values: Sequence[float]) -> tuple:
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(variance)


def merge(
    names: Sequence[str],
    payloads_by_seed: Sequence[Tuple[int, Sequence[Dict[str, Any]]]],
) -> ExperimentResult:
    """Fold each seed's Fig. 8 payloads into the cross-seed statistics.

    ``payloads_by_seed`` pairs each swept seed with its per-benchmark
    payloads (one :func:`fig8.compute` payload per name, in ``names``
    order).
    """
    per_seed: Dict[str, List[float]] = {metric: [] for metric in METRICS}
    seeds = [seed for seed, _ in payloads_by_seed]
    for _seed, payloads in payloads_by_seed:
        result = fig8.merge(names, payloads)
        for metric in METRICS:
            per_seed[metric].append(result.extras[metric])

    rows: List[List] = []
    extras: Dict[str, float] = {}
    for metric in METRICS:
        mean, std = _mean_std(per_seed[metric])
        spread = (max(per_seed[metric]) - min(per_seed[metric]))
        rows.append([
            metric,
            round(mean, 3),
            round(std, 4),
            round(min(per_seed[metric]), 3),
            round(max(per_seed[metric]), 3),
        ])
        extras[f"{metric}_mean"] = mean
        extras[f"{metric}_std"] = std
        extras[f"{metric}_spread"] = spread
    return ExperimentResult(
        name=f"Seed robustness over seeds {tuple(seeds)}",
        headers=["metric", "mean", "std", "min", "max"],
        rows=rows,
        extras=extras,
    )

