"""Endurance / lifetime analysis (the i2WAP perspective, paper ref [15]).

STT-RAM cells wear out after a finite number of writes (10^12-10^15 in the
literature; far better than flash but not unlimited).  Because the array
dies when its *hottest* frame dies, lifetime is set by the maximum per-frame
write rate, and write-variation reduction (Wang et al., i2WAP, HPCA 2013 —
the source of the paper's Fig. 3 methodology) translates directly into
lifetime.

This module turns the per-frame wear counters of
:meth:`repro.cache.array.SetAssociativeCache.per_frame_write_counts` into
lifetime estimates, and quantifies the headroom ideal wear-leveling would
buy (the ratio max-rate / mean-rate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.array import SetAssociativeCache
from repro.errors import AnalysisError

#: Conservative STT-RAM write endurance (writes per cell).
DEFAULT_ENDURANCE_WRITES = 4.0e12


@dataclass(frozen=True)
class LifetimeReport:
    """Lifetime estimate for one cache array after a measured run.

    Attributes
    ----------
    max_frame_writes / mean_frame_writes:
        Wear of the hottest frame and the average frame over the run.
    elapsed_s:
        Simulated time the counts were accumulated over.
    endurance_writes:
        Cell endurance assumed.
    """

    max_frame_writes: int
    mean_frame_writes: float
    elapsed_s: float
    endurance_writes: float

    @property
    def max_write_rate(self) -> float:
        """Writes/second of the hottest frame."""
        return self.max_frame_writes / self.elapsed_s

    @property
    def lifetime_s(self) -> float:
        """Time until the hottest frame exhausts its endurance."""
        if self.max_frame_writes == 0:
            return float("inf")
        return self.endurance_writes / self.max_write_rate

    @property
    def imbalance(self) -> float:
        """Hottest-to-average wear ratio — ideal wear-leveling headroom.

        1.0 means perfectly even wear; ``k`` means ideal leveling would
        extend lifetime by up to ``k``x.
        """
        if self.mean_frame_writes == 0:
            return 1.0
        return self.max_frame_writes / self.mean_frame_writes


def lifetime_report(
    cache: SetAssociativeCache,
    elapsed_s: float,
    endurance_writes: float = DEFAULT_ENDURANCE_WRITES,
) -> LifetimeReport:
    """Build a :class:`LifetimeReport` from an array's wear counters."""
    if elapsed_s <= 0:
        raise AnalysisError("elapsed time must be positive")
    if endurance_writes <= 0:
        raise AnalysisError("endurance must be positive")
    frames = np.asarray(cache.per_frame_write_counts(), dtype=np.float64)
    if frames.size == 0:
        raise AnalysisError("cache has no frames")
    return LifetimeReport(
        max_frame_writes=int(frames.max()),
        mean_frame_writes=float(frames.mean()),
        elapsed_s=elapsed_s,
        endurance_writes=endurance_writes,
    )


def relative_lifetime(a: LifetimeReport, b: LifetimeReport) -> float:
    """Lifetime of ``a`` relative to ``b`` (>1 means ``a`` lives longer)."""
    if b.lifetime_s == float("inf"):
        raise AnalysisError("reference lifetime is unbounded")
    return a.lifetime_s / b.lifetime_s
