"""PPT-style analytical surrogate: instant (config, workload) predictions.

The package converts the trace-driven simulator into a design-space
oracle, following the split LANL's Performance Prediction Toolkit uses —
architecture-independent workload pre-characterization plus a
parameterized hardware model:

* :mod:`repro.surrogate.features` — one replay per workload measures the
  paper's own driving statistics (size-weighted WWS, rewrite-interval
  distribution, write skew, L2 traffic mix) into a persisted,
  content-keyed :class:`WorkloadFeatures` vector;
* :mod:`repro.surrogate.model` — :func:`fit_surrogate` anchors every
  (config, benchmark) pair on a handful of ground-truth simulations and
  :class:`SurrogateModel` predicts IPC / L2 hit rate / L2 dynamic energy
  for any (config, workload, trace length) point in microseconds
  (closed-form energy/leakage, log-length grid interpolation for rates;
  an unfitted (config, benchmark) pair is an error);
  :class:`SurrogateOracle` is the lazy thread-safe variant the
  simulation service embeds;
* :mod:`repro.surrogate.validate` — the >=200-point validation grid,
  error-bound summary, prediction-throughput load check, and the
  schema-validated BENCH_surrogate.json gate
  (``scripts/bench_surrogate.py``, CI ``surrogate-smoke``).

Serving surfaces: ``repro-sttgpu predict`` and the service ``predict``
request kind (docs/surrogate.md documents the model form, error bounds
and gate policy).
"""

from repro.surrogate.features import (
    FEATURE_TRACE_LENGTH,
    WorkloadFeatures,
    characterize_workload,
    feature_key,
)
from repro.surrogate.model import (
    DEFAULT_ANCHOR_LENGTHS,
    PREDICTED_METRICS,
    AnchorPoint,
    SurrogateModel,
    SurrogateOracle,
    anchor_key,
    fit_surrogate,
)
from repro.surrogate.validate import (
    ERROR_POLICY,
    MIN_PREDICTIONS_PER_S,
    build_grid,
    compare_surrogate_bench,
    measure_throughput,
    run_surrogate_bench,
    run_validation,
    summarize_errors,
    validate_surrogate_bench,
    write_surrogate_bench,
)

__all__ = [
    "AnchorPoint",
    "DEFAULT_ANCHOR_LENGTHS",
    "ERROR_POLICY",
    "FEATURE_TRACE_LENGTH",
    "MIN_PREDICTIONS_PER_S",
    "PREDICTED_METRICS",
    "SurrogateModel",
    "SurrogateOracle",
    "WorkloadFeatures",
    "anchor_key",
    "build_grid",
    "characterize_workload",
    "compare_surrogate_bench",
    "feature_key",
    "fit_surrogate",
    "measure_throughput",
    "run_surrogate_bench",
    "run_validation",
    "summarize_errors",
    "validate_surrogate_bench",
    "write_surrogate_bench",
]
