"""Order statistics shared by the workloads and ``compare.py``."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Percentiles a tail is reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (``pct`` in (0, 100])."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    return sorted(samples)[_rank(pct, len(samples)) - 1]


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """The highest ``TAIL_LADDER`` percentile with ``MIN_BEYOND`` samples above it.

    Returns ``(pct, value, beyond)`` or ``None`` when even the lowest rung
    lacks the samples.  ``beyond`` counts the samples ranked after the
    percentile's nearest-rank position.
    """
    n = len(samples)
    for pct in sorted(TAIL_LADDER, reverse=True):
        beyond = n - _rank(pct, n)
        if beyond >= MIN_BEYOND:
            return pct, percentile(samples, pct), beyond
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for a zero median)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0
