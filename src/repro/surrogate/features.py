"""Workload pre-characterization: the surrogate's feature vectors.

PPT-style split (LANL's Performance Prediction Toolkit): everything
architecture-*independent* about a workload is measured once — the paper's
own driving statistics — and persisted, so the hardware model can be
re-fit or swapped without touching a trace again.  One
:class:`WorkloadFeatures` per ``(benchmark, trace_length, seed)`` records:

* the raw-trace write fraction;
* size-weighted WWS statistics (:func:`repro.analysis.wws.write_working_set`
  with the partial tail window weighted by its actual size);
* the rewrite-interval distribution and its under-10 us share
  (:mod:`repro.analysis.intervals`, measured on a C1-geometry two-part L2
  with interval tracking);
* inter/intra-set write skew (:mod:`repro.analysis.cov`) on the baseline
  L2 geometry;
* the L1-filtered L2 traffic mix (request count, write share).

Everything is measured in **one** replay through the shared per-SM L1
front end (:func:`repro.experiments.parallel` semantics), and cached
content-keyed in the battery ``--cache-dir`` key space: the descriptor
folds ``cache_schema`` and the Table 2 config fingerprint exactly like
:func:`repro.experiments.parallel.job_key`, so a parameter edit
invalidates stale feature vectors alongside stale job payloads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping, Optional

from repro.analysis.cov import write_variation
from repro.analysis.intervals import rewrite_interval_distribution
from repro.analysis.wws import weighted_wws_fraction, write_working_set
from repro.config import config_c1
from repro.core.factory import build_l2
from repro.engine.soa_array import SoaCacheArray
from repro.errors import AnalysisError, SurrogateError
from repro.experiments.common import replay_through_l1
from repro.telemetry import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    config_fingerprint,
    content_key,
)
from repro.tracing import NULL_TRACER
from repro.units import KB
from repro.workloads.suite import build_workload
from repro.workloads.trace import FLAG_WRITE

#: Default trace length of a pre-characterization run.  Long enough that
#: the WWS / rewrite statistics are stable, short enough that all 16
#: benchmarks characterize in a couple of seconds.
FEATURE_TRACE_LENGTH = 6000

#: WWS window size (accesses) used by the characterization pass.
WWS_WINDOW = 2000


@dataclass(frozen=True)
class WorkloadFeatures:
    """One workload's architecture-independent feature vector."""

    benchmark: str
    trace_length: int
    seed: int
    # raw-trace statistics
    write_fraction: float
    # size-weighted WWS statistics (partial tail window weighted by size)
    wws_fraction: float
    wws_written_lines: float
    wws_windows: int
    # rewrite-interval distribution (C1 geometry, interval tracking on)
    rewrite_under_10us: float
    rewrite_fractions: Dict[str, float]
    rewrite_total: int
    # write skew on the baseline L2 geometry (0.0 when the filtered
    # stream carried no writes)
    write_cov_inter_set: float
    write_cov_intra_set: float
    # L1-filtered L2 traffic
    l2_requests: int
    l2_write_share: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe rendering (the cached payload)."""
        return asdict(self)

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "WorkloadFeatures":
        """Inverse of :meth:`to_dict`; raises ``SurrogateError`` on gaps."""
        try:
            return WorkloadFeatures(**dict(payload))
        except TypeError as error:
            raise SurrogateError(
                f"malformed feature payload: {error}"
            ) from error


def feature_key(benchmark: str, trace_length: int, seed: int) -> str:
    """Content key of one feature vector in the battery key space."""
    return content_key({
        "kind": "surrogate-features",
        "benchmark": benchmark,
        "trace_length": trace_length,
        "seed": seed,
        "wws_window": WWS_WINDOW,
        "cache_schema": CACHE_SCHEMA_VERSION,
        "config_fingerprint": config_fingerprint(),
    })


def characterize_workload(
    benchmark: str,
    trace_length: int = FEATURE_TRACE_LENGTH,
    seed: int = 0,
    cache: Optional[ResultCache] = None,
    tracer=NULL_TRACER,
) -> WorkloadFeatures:
    """Measure (or cache-load) one workload's feature vector.

    With ``cache`` set, a previously characterized ``(benchmark,
    trace_length, seed)`` is a disk read (``surrogate.features.cache_hits``)
    instead of a replay; fresh measurements are stored back under the
    battery-compatible content key.
    """
    key = feature_key(benchmark, trace_length, seed)
    if cache is not None:
        payload = cache.get(key)
        if payload is not None:
            tracer.count("surrogate.features.cache_hits")
            return WorkloadFeatures.from_dict(payload)

    workload = build_workload(benchmark, num_accesses=trace_length, seed=seed)
    flags = workload.trace.flags
    write_fraction = float(((flags & FLAG_WRITE) != 0).mean())

    windows = write_working_set(workload.trace, window=WWS_WINDOW)
    total_size = sum(w.size for w in windows)
    wws_written = (
        sum(w.distinct_written_lines * w.size for w in windows) / total_size
        if total_size else 0.0
    )

    # one replay through the L1 front end feeds both measurement caches
    cov_array = SoaCacheArray(384 * KB, 8, 256, name="surrogate-cov")
    twopart = build_l2(config_c1().l2, track_intervals=True, engine="soa")
    counts = {"requests": 0, "writes": 0}

    def tap(address: int, is_write: bool, now: float) -> None:
        counts["requests"] += 1
        counts["writes"] += int(is_write)
        cov_array.access(address, is_write)
        twopart.access(address, is_write, now)

    replay_through_l1(workload, tap)

    distribution = rewrite_interval_distribution(twopart.rewrite_intervals)
    try:
        variation = write_variation(cov_array)
        inter_cov = variation.inter_set_cov
        intra_cov = variation.intra_set_cov
    except AnalysisError:
        inter_cov = intra_cov = 0.0  # no writes survived the L1 filter

    features = WorkloadFeatures(
        benchmark=benchmark,
        trace_length=trace_length,
        seed=seed,
        write_fraction=write_fraction,
        wws_fraction=weighted_wws_fraction(windows),
        wws_written_lines=wws_written,
        wws_windows=len(windows),
        rewrite_under_10us=distribution.fraction_under(1e-5),
        rewrite_fractions=distribution.fractions(),
        rewrite_total=distribution.total,
        write_cov_inter_set=inter_cov,
        write_cov_intra_set=intra_cov,
        l2_requests=counts["requests"],
        l2_write_share=(
            counts["writes"] / counts["requests"] if counts["requests"] else 0.0
        ),
    )
    tracer.count("surrogate.features.computed")
    if cache is not None:
        cache.put(
            key,
            {
                "kind": "surrogate-features",
                "benchmark": benchmark,
                "trace_length": trace_length,
                "seed": seed,
            },
            features.to_dict(),
        )
    return features
