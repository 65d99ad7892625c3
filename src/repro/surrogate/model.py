"""The analytical surrogate: (config, workload features) -> metrics.

Model form (documented in docs/surrogate.md):

* **Closed-form where the paper's model permits.**  L2 leakage power is a
  property of the configuration alone (the areapower model), so the
  surrogate carries it through unchanged; L2 dynamic energy is traffic ×
  per-access energy, so the surrogate predicts a fitted per-access
  coefficient and multiplies by trace length — linear in traffic by
  construction, exactly like the underlying energy accounting.
* **Grid interpolation elsewhere.**  Hit rates and IPC have no
  closed form (occupancy cliffs, working-set/capacity crossovers), so the
  surrogate anchors each ``(config, benchmark)`` pair on a handful of
  ground-truth simulations at :data:`DEFAULT_ANCHOR_LENGTHS` and
  interpolates log-linearly in trace length between them (clamped linear
  extrapolation outside).  A pair the model was never fitted on is an
  error, never a guess.

Predictions are seed-independent (anchors are run at one seed); the
validation harness (:mod:`repro.surrogate.validate`) measures the
resulting cross-seed error and commits the bounds to BENCH_surrogate.json.
A fitted model serializes to a JSON document whose content key
(:meth:`SurrogateModel.digest`) pins it in the benchmark gate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from threading import Lock
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SurrogateError
from repro.surrogate.features import (
    FEATURE_TRACE_LENGTH,
    WorkloadFeatures,
    characterize_workload,
)
from repro.telemetry import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    config_fingerprint,
    content_key,
)
from repro.tracing import NULL_TRACER

#: Schema version of the serialized model document.
MODEL_SCHEMA_VERSION = 1

#: Trace lengths the fit anchors every (config, benchmark) pair on.
DEFAULT_ANCHOR_LENGTHS: Tuple[int, ...] = (4000, 12000)

#: The metrics a prediction carries (and validation scores).
PREDICTED_METRICS = ("ipc", "l2_hit_rate", "l2_dynamic_energy_j")


@dataclass(frozen=True)
class AnchorPoint:
    """Ground-truth metrics of one (config, benchmark, length) simulation."""

    trace_length: int
    ipc: float
    l2_hit_rate: float
    l1_hit_rate: float
    l2_dynamic_energy_j: float
    l2_leakage_power_w: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe rendering (the cached payload)."""
        return asdict(self)

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "AnchorPoint":
        """Inverse of :meth:`to_dict`; raises ``SurrogateError`` on gaps."""
        try:
            return AnchorPoint(**dict(payload))
        except TypeError as error:
            raise SurrogateError(f"malformed anchor payload: {error}") from error


def anchor_key(config: str, benchmark: str, trace_length: int, seed: int) -> str:
    """Content key of one anchor simulation in the battery key space."""
    return content_key({
        "kind": "surrogate-anchor",
        "config": config,
        "benchmark": benchmark,
        "trace_length": trace_length,
        "seed": seed,
        "cache_schema": CACHE_SCHEMA_VERSION,
        "config_fingerprint": config_fingerprint(),
    })


def _simulate_anchor(
    config: str,
    benchmark: str,
    trace_length: int,
    seed: int,
    cache: Optional[ResultCache],
    tracer,
) -> AnchorPoint:
    """One ground-truth anchor run (registry default engine), cached."""
    key = anchor_key(config, benchmark, trace_length, seed)
    if cache is not None:
        payload = cache.get(key)
        if payload is not None:
            tracer.count("surrogate.fit.anchor_cache_hits")
            return AnchorPoint.from_dict(payload)
    from repro import all_configs, build_workload, simulate

    workload = build_workload(benchmark, num_accesses=trace_length, seed=seed)
    result = simulate(all_configs()[config], workload)
    anchor = AnchorPoint(
        trace_length=trace_length,
        ipc=result.ipc,
        l2_hit_rate=result.l2_hit_rate,
        l1_hit_rate=result.l1_hit_rate,
        l2_dynamic_energy_j=result.l2_dynamic_energy_j,
        l2_leakage_power_w=result.l2_leakage_power_w,
    )
    tracer.count("surrogate.fit.anchor_sims")
    if cache is not None:
        cache.put(
            key,
            {"kind": "surrogate-anchor", "config": config,
             "benchmark": benchmark, "trace_length": trace_length,
             "seed": seed},
            anchor.to_dict(),
        )
    return anchor


def _log_linear(x0: float, y0: float, x1: float, y1: float, x: float) -> float:
    if x1 == x0:
        return y0
    t = (x - x0) / (x1 - x0)
    return y0 + t * (y1 - y0)


class SurrogateModel:
    """A fitted surrogate over a (config, benchmark) anchor grid."""

    def __init__(
        self,
        anchor_lengths: Sequence[int],
        anchor_seed: int,
        features: Mapping[str, WorkloadFeatures],
        anchors: Mapping[str, Mapping[str, Sequence[AnchorPoint]]],
        fingerprint: Optional[str] = None,
    ) -> None:
        """Wrap fitted state (use :func:`fit_surrogate` to build one)."""
        if len(anchor_lengths) < 2:
            raise SurrogateError(
                f"need >= 2 anchor lengths to interpolate, got "
                f"{list(anchor_lengths)}"
            )
        self.anchor_lengths = tuple(sorted(anchor_lengths))
        self.anchor_seed = anchor_seed
        self.features = dict(features)
        self.anchors = {
            config: {bench: list(points) for bench, points in per_config.items()}
            for config, per_config in anchors.items()
        }
        self.fingerprint = fingerprint or config_fingerprint()

    @property
    def configs(self) -> List[str]:
        """Config names the model has anchors for (sorted)."""
        return sorted(self.anchors)

    @property
    def benchmarks(self) -> List[str]:
        """Benchmark names the model was fitted on (sorted)."""
        return sorted(self.features)

    def _pair_anchors(self, config: str, benchmark: str) -> List[AnchorPoint]:
        per_config = self.anchors.get(config)
        if per_config is None:
            raise SurrogateError(
                f"no anchors for config {config!r}; fitted on {self.configs}"
            )
        points = per_config.get(benchmark)
        if points is None:
            raise SurrogateError(
                f"no anchors for benchmark {benchmark!r} on {config}; "
                f"fitted on {sorted(per_config)}"
            )
        return points

    def predict(
        self,
        config: str,
        benchmark: str,
        trace_length: int,
        seed: int = 0,
        tracer=NULL_TRACER,
    ) -> Dict[str, Any]:
        """Predict metrics for one (config, benchmark, length, seed) point.

        Returns a JSON-safe dict carrying :data:`PREDICTED_METRICS` plus
        ``l1_hit_rate`` and the closed-form ``l2_leakage_power_w``; the
        ``via`` field names the anchor benchmark, which is ``benchmark``
        itself.  Microseconds per call — no trace is generated, nothing is
        simulated.
        """
        if trace_length <= 0:
            raise SurrogateError(
                f"trace_length must be positive, got {trace_length}"
            )
        points = self._pair_anchors(config, benchmark)
        first, last = points[0], points[-1]
        x0, x1 = math.log(first.trace_length), math.log(last.trace_length)
        x = math.log(trace_length)

        def interp(y0: float, y1: float) -> float:
            return _log_linear(x0, y0, x1, y1, x)

        hit = min(1.0, max(0.0, interp(first.l2_hit_rate, last.l2_hit_rate)))
        l1_hit = min(1.0, max(0.0, interp(first.l1_hit_rate, last.l1_hit_rate)))
        ipc = max(0.0, interp(first.ipc, last.ipc))
        energy_per_access = max(0.0, interp(
            first.l2_dynamic_energy_j / first.trace_length,
            last.l2_dynamic_energy_j / last.trace_length,
        ))
        tracer.count("surrogate.predictions")
        return {
            "benchmark": benchmark,
            "config": config,
            "trace_length": trace_length,
            "seed": seed,
            "via": benchmark,
            "ipc": ipc,
            "l2_hit_rate": hit,
            "l1_hit_rate": l1_hit,
            "l2_dynamic_energy_j": energy_per_access * trace_length,
            "l2_leakage_power_w": first.l2_leakage_power_w,
        }

    def to_dict(self) -> Dict[str, Any]:
        """The serialized model document (JSON-safe, digestable)."""
        return {
            "schema_version": MODEL_SCHEMA_VERSION,
            "anchor_lengths": list(self.anchor_lengths),
            "anchor_seed": self.anchor_seed,
            "feature_trace_length": FEATURE_TRACE_LENGTH,
            "config_fingerprint": self.fingerprint,
            "configs": self.configs,
            "benchmarks": self.benchmarks,
            "features": {
                name: features.to_dict()
                for name, features in sorted(self.features.items())
            },
            "anchors": {
                config: {
                    bench: [point.to_dict() for point in points]
                    for bench, points in sorted(per_config.items())
                }
                for config, per_config in sorted(self.anchors.items())
            },
        }

    @staticmethod
    def from_dict(document: Mapping[str, Any]) -> "SurrogateModel":
        """Rehydrate a model serialized by :meth:`to_dict`.

        Raises :class:`~repro.errors.SurrogateError` for an unsupported
        schema or a config-fingerprint mismatch (the model was fitted
        against different Table 2 parameters and must be re-fit).
        """
        if document.get("schema_version") != MODEL_SCHEMA_VERSION:
            raise SurrogateError(
                f"unsupported model schema "
                f"{document.get('schema_version')!r} "
                f"(expected {MODEL_SCHEMA_VERSION})"
            )
        if document.get("config_fingerprint") != config_fingerprint():
            raise SurrogateError(
                "model was fitted against different Table 2 configurations "
                "(config fingerprint mismatch); re-fit the surrogate"
            )
        return SurrogateModel(
            anchor_lengths=document["anchor_lengths"],
            anchor_seed=document["anchor_seed"],
            features={
                name: WorkloadFeatures.from_dict(payload)
                for name, payload in document["features"].items()
            },
            anchors={
                config: {
                    bench: [AnchorPoint.from_dict(p) for p in points]
                    for bench, points in per_config.items()
                }
                for config, per_config in document["anchors"].items()
            },
            fingerprint=document["config_fingerprint"],
        )

    def digest(self) -> str:
        """Content key of the serialized model (pins it in the gate)."""
        return content_key(self.to_dict())


def fit_surrogate(
    configs: Optional[Iterable[str]] = None,
    benchmarks: Optional[Iterable[str]] = None,
    anchor_lengths: Sequence[int] = DEFAULT_ANCHOR_LENGTHS,
    seed: int = 0,
    cache: Optional[ResultCache] = None,
    tracer=NULL_TRACER,
) -> SurrogateModel:
    """Characterize + anchor + assemble a :class:`SurrogateModel`.

    Runs one characterization replay per benchmark and one ground-truth
    simulation per (config, benchmark, anchor length) — all cached
    content-keyed when ``cache`` is given, so a re-fit over an unchanged
    grid is pure disk reads.
    """
    from repro import all_configs
    from repro.workloads.suite import suite_names

    config_names = list(configs) if configs is not None else sorted(all_configs())
    bench_names = list(benchmarks) if benchmarks is not None else suite_names()
    unknown = sorted(set(config_names) - set(all_configs()))
    if unknown:
        raise SurrogateError(f"unknown config(s): {unknown}")
    unknown = sorted(set(bench_names) - set(suite_names()))
    if unknown:
        raise SurrogateError(f"unknown benchmark(s): {unknown}")

    features = {
        name: characterize_workload(name, cache=cache, tracer=tracer)
        for name in bench_names
    }
    anchors: Dict[str, Dict[str, List[AnchorPoint]]] = {}
    for config in config_names:
        per_config: Dict[str, List[AnchorPoint]] = {}
        for benchmark in bench_names:
            per_config[benchmark] = [
                _simulate_anchor(config, benchmark, length, seed, cache, tracer)
                for length in sorted(anchor_lengths)
            ]
        anchors[config] = per_config
        tracer.count("surrogate.fit.pairs", len(bench_names))
    return SurrogateModel(
        anchor_lengths=anchor_lengths,
        anchor_seed=seed,
        features=features,
        anchors=anchors,
    )


class SurrogateOracle:
    """Lazy, thread-safe surrogate for serving single predictions.

    The service front end must answer ``predict`` requests without
    touching the simulation worker pool, but fitting a full grid up front
    would stall startup.  The oracle therefore fits **per (config,
    benchmark) pair on first use** — two anchor simulations plus one
    characterization replay, all content-key cached when a cache is
    attached — and answers every later prediction for that pair from the
    in-memory anchors in microseconds.
    """

    def __init__(
        self,
        anchor_lengths: Sequence[int] = DEFAULT_ANCHOR_LENGTHS,
        anchor_seed: int = 0,
        cache: Optional[ResultCache] = None,
        tracer=NULL_TRACER,
    ) -> None:
        """Configure the oracle; nothing is fitted until the first call."""
        self.anchor_lengths = tuple(sorted(anchor_lengths))
        self.anchor_seed = anchor_seed
        self.cache = cache
        self.tracer = tracer
        self._model = SurrogateModel(
            anchor_lengths=self.anchor_lengths,
            anchor_seed=anchor_seed,
            features={},
            anchors={},
        )
        self._lock = Lock()

    @property
    def fitted_pairs(self) -> int:
        """How many (config, benchmark) pairs have anchors so far."""
        return sum(len(per) for per in self._model.anchors.values())

    def _ensure_pair(self, config: str, benchmark: str) -> None:
        from repro import all_configs
        from repro.workloads.suite import suite_names

        if config not in all_configs():
            raise SurrogateError(
                f"unknown config {config!r}; choose from "
                f"{sorted(all_configs())}"
            )
        if benchmark not in suite_names():
            raise SurrogateError(
                f"unknown benchmark {benchmark!r}; choose from {suite_names()}"
            )
        with self._lock:
            per_config = self._model.anchors.setdefault(config, {})
            if benchmark in per_config:
                return
            if benchmark not in self._model.features:
                self._model.features[benchmark] = characterize_workload(
                    benchmark, cache=self.cache, tracer=self.tracer
                )
            per_config[benchmark] = [
                _simulate_anchor(
                    config, benchmark, length, self.anchor_seed,
                    self.cache, self.tracer,
                )
                for length in self.anchor_lengths
            ]
            self.tracer.count("surrogate.fit.pairs")

    def predict(
        self, config: str, benchmark: str, trace_length: int, seed: int = 0
    ) -> Dict[str, Any]:
        """Predict one point, fitting the pair's anchors on first use."""
        self._ensure_pair(config, benchmark)
        return self._model.predict(
            config, benchmark, trace_length, seed=seed, tracer=self.tracer
        )
