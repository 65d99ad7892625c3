"""Tests for the analytical surrogate: features, model, validation, gate.

Covers the contracts docs/surrogate.md promises:

* workload pre-characterization — determinism, the content-keyed cache
  round-trip in the battery key space, malformed-payload rejection;
* the fitted model — anchor-exact predictions, log-length interpolation,
  clamping, serialization/digest stability, config-fingerprint and
  schema rejection, the unfitted-benchmark error;
* the lazy :class:`~repro.surrogate.SurrogateOracle` (what the service
  embeds) — per-pair fitting, shared-cache reuse;
* the validation harness — deterministic grid sampling, error
  summaries, the ``BENCH_surrogate.json`` schema gate and its
  digest-changes-always-fail policy;
* the committed baseline — schema-valid, >= 200 grid points, and error
  bounds within the acceptance policy.
"""

import json
import os

import pytest

from repro.errors import SurrogateError
from repro.io import load_json
from repro.surrogate import (
    DEFAULT_ANCHOR_LENGTHS,
    ERROR_POLICY,
    MIN_PREDICTIONS_PER_S,
    PREDICTED_METRICS,
    SurrogateModel,
    SurrogateOracle,
    WorkloadFeatures,
    anchor_key,
    build_grid,
    characterize_workload,
    compare_surrogate_bench,
    feature_key,
    fit_surrogate,
    measure_throughput,
    summarize_errors,
    validate_surrogate_bench,
)
from repro.telemetry import ResultCache
from repro.tracing import TraceCollector

# small anchors keep the fit cheap; real serving uses DEFAULT_ANCHOR_LENGTHS
ANCHORS = (800, 2400)

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_surrogate.json"
)


@pytest.fixture(scope="module")
def small_model():
    """One tiny fitted model shared by the model tests."""
    return fit_surrogate(
        configs=["C1", "C3"], benchmarks=["bfs", "nn"], anchor_lengths=ANCHORS
    )


class TestFeatures:
    def test_characterization_is_deterministic(self):
        first = characterize_workload("bfs", trace_length=3000)
        second = characterize_workload("bfs", trace_length=3000)
        assert first == second
        assert first.benchmark == "bfs"
        assert 0.0 <= first.write_fraction <= 1.0
        assert 0.0 <= first.wws_fraction <= 1.0
        assert 0.0 <= first.rewrite_under_10us <= 1.0
        assert first.l2_requests > 0

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        tracer = TraceCollector(max_events=0)
        fresh = characterize_workload(
            "nn", trace_length=3000, cache=cache, tracer=tracer
        )
        cached = characterize_workload(
            "nn", trace_length=3000, cache=cache, tracer=tracer
        )
        assert cached == fresh
        counters = tracer.counters_dict()
        assert counters["surrogate.features.computed"] == 1
        assert counters["surrogate.features.cache_hits"] == 1

    def test_keys_are_parameter_sensitive(self):
        base = feature_key("bfs", 3000, 0)
        assert feature_key("bfs", 3000, 1) != base
        assert feature_key("bfs", 4000, 0) != base
        assert feature_key("nn", 3000, 0) != base
        assert anchor_key("C1", "bfs", 3000, 0) != base

    def test_malformed_payload_is_rejected(self):
        with pytest.raises(SurrogateError):
            WorkloadFeatures.from_dict({"benchmark": "bfs"})


class TestModel:
    def test_prediction_at_anchor_reproduces_ground_truth(self, small_model):
        anchor = small_model.anchors["C1"]["bfs"][0]
        predicted = small_model.predict("C1", "bfs", anchor.trace_length)
        assert predicted["ipc"] == pytest.approx(anchor.ipc)
        assert predicted["l2_hit_rate"] == pytest.approx(anchor.l2_hit_rate)
        assert predicted["l2_dynamic_energy_j"] == pytest.approx(
            anchor.l2_dynamic_energy_j
        )
        assert predicted["via"] == "bfs"

    def test_interpolated_rates_stay_clamped(self, small_model):
        for length in (100, 1200, 50_000):
            predicted = small_model.predict("C1", "bfs", length)
            assert 0.0 <= predicted["l2_hit_rate"] <= 1.0
            assert 0.0 <= predicted["l1_hit_rate"] <= 1.0
            assert predicted["ipc"] >= 0.0
            assert predicted["l2_dynamic_energy_j"] >= 0.0

    def test_energy_is_linear_in_traffic_at_fixed_coefficient(self, small_model):
        anchor = small_model.anchors["C1"]["bfs"][0]
        predicted = small_model.predict("C1", "bfs", anchor.trace_length)
        per_access = predicted["l2_dynamic_energy_j"] / anchor.trace_length
        assert per_access == pytest.approx(
            anchor.l2_dynamic_energy_j / anchor.trace_length
        )

    def test_unfitted_benchmark_is_an_error_naming_the_fitted_ones(
        self, small_model
    ):
        with pytest.raises(SurrogateError, match=r"'kmeans'.*\['bfs', 'nn'\]"):
            small_model.predict("C1", "kmeans", 1200)

    def test_serialization_round_trip_preserves_digest(self, small_model):
        document = small_model.to_dict()
        rehydrated = SurrogateModel.from_dict(
            json.loads(json.dumps(document))
        )
        assert rehydrated.digest() == small_model.digest()
        a = small_model.predict("C3", "nn", 1500)
        b = rehydrated.predict("C3", "nn", 1500)
        assert a == b

    def test_fingerprint_mismatch_is_rejected(self, small_model):
        document = small_model.to_dict()
        document["config_fingerprint"] = "0" * 64
        with pytest.raises(SurrogateError, match="fingerprint"):
            SurrogateModel.from_dict(document)

    def test_unsupported_schema_is_rejected(self, small_model):
        document = small_model.to_dict()
        document["schema_version"] = 999
        with pytest.raises(SurrogateError, match="schema"):
            SurrogateModel.from_dict(document)

    def test_misuse_raises(self, small_model):
        with pytest.raises(SurrogateError):
            fit_surrogate(configs=["C9"], benchmarks=["bfs"])
        with pytest.raises(SurrogateError):
            fit_surrogate(configs=["C1"], benchmarks=["nope"])
        with pytest.raises(SurrogateError):
            fit_surrogate(configs=["C1"], benchmarks=["bfs"],
                          anchor_lengths=(4000,))
        with pytest.raises(SurrogateError):
            small_model.predict("C9", "bfs", 1000)
        with pytest.raises(SurrogateError):
            small_model.predict("C1", "bfs", 0)


class TestOracle:
    def test_pairs_fit_lazily_and_cache_is_shared(self, tmp_path):
        cache = ResultCache(tmp_path)
        tracer = TraceCollector(max_events=0)
        oracle = SurrogateOracle(
            anchor_lengths=ANCHORS, cache=cache, tracer=tracer
        )
        assert oracle.fitted_pairs == 0
        first = oracle.predict("C1", "bfs", 1200)
        assert oracle.fitted_pairs == 1
        again = oracle.predict("C1", "bfs", 1200)
        assert again == first
        assert oracle.fitted_pairs == 1  # warm pair, no re-fit

        warm_tracer = TraceCollector(max_events=0)
        warm = SurrogateOracle(
            anchor_lengths=ANCHORS, cache=cache, tracer=warm_tracer
        )
        assert warm.predict("C1", "bfs", 1200) == first
        counters = warm_tracer.counters_dict()
        assert counters["surrogate.fit.anchor_cache_hits"] == len(ANCHORS)
        assert counters["surrogate.features.cache_hits"] == 1
        assert "surrogate.fit.anchor_sims" not in counters


class TestValidationHarness:
    def test_grid_is_deterministic_and_large_enough(self):
        from repro.config import all_configs
        from repro.workloads.suite import suite_names

        configs = sorted(all_configs())
        benchmarks = suite_names()
        grid = build_grid(configs, benchmarks)
        assert grid == build_grid(configs, benchmarks)
        assert len(grid) >= 200  # the acceptance floor
        assert len({
            (p["config"], p["benchmark"], p["trace_length"], p["seed"])
            for p in grid
        }) == len(grid)

    def test_grid_rejects_oversampling(self):
        with pytest.raises(SurrogateError):
            build_grid(["C1"], ["bfs"], lengths=(1000,), seeds=(0,),
                       points_per_pair=2)

    def test_summarize_errors(self):
        points = [{
            "truth": {m: 1.0 for m in PREDICTED_METRICS},
            "predicted": {m: 1.1 for m in PREDICTED_METRICS},
        }]
        summary = summarize_errors(points)
        for metric in PREDICTED_METRICS:
            assert summary[metric]["median_abs_rel_err"] == pytest.approx(0.1)
            assert summary[metric]["max_abs_rel_err"] == pytest.approx(0.1)

    def test_summarize_errors_empty_raises(self):
        with pytest.raises(SurrogateError):
            summarize_errors([])

    def test_throughput_needs_a_grid(self, small_model):
        with pytest.raises(SurrogateError):
            measure_throughput(small_model, [])

    def test_throughput_measurement_shape(self, small_model):
        grid = [{"config": "C1", "benchmark": "bfs",
                 "trace_length": 1200, "seed": 0}]
        report = measure_throughput(small_model, grid, predictions=500)
        assert report["predictions"] == 500
        assert report["predictions_per_s"] > 0


class TestBenchGate:
    @pytest.fixture(scope="class")
    def baseline(self):
        return load_json(BASELINE_PATH)

    def test_committed_baseline_is_schema_valid(self, baseline):
        validate_surrogate_bench(baseline)
        assert baseline["params"]["grid_points"] >= 200
        assert baseline["params"]["anchor_lengths"] == sorted(
            DEFAULT_ANCHOR_LENGTHS
        )

    def test_committed_error_bounds_meet_the_policy(self, baseline):
        for metric, bound in ERROR_POLICY.items():
            median = baseline["errors"][metric]["median_abs_rel_err"]
            assert median <= bound, (metric, median, bound)
        assert (
            baseline["throughput"]["predictions_per_s"]
            >= MIN_PREDICTIONS_PER_S
        )

    def test_baseline_compares_clean_against_itself(self, baseline):
        report = compare_surrogate_bench(baseline, baseline)
        assert report["ok"] is True
        assert report["model_digest_match"] is True
        assert report["points_digest_match"] is True
        assert report["error_violations"] == {}

    def test_model_digest_change_fails_the_gate(self, baseline):
        tampered = json.loads(json.dumps(baseline))
        tampered["model_digest"] = "0" * 64
        report = compare_surrogate_bench(baseline, tampered)
        assert report["ok"] is False
        assert report["model_digest_match"] is False

    def test_tampered_points_are_rejected(self, baseline):
        tampered = json.loads(json.dumps(baseline))
        tampered["points"][0]["predicted"]["ipc"] += 1.0
        with pytest.raises(SurrogateError, match="points_digest"):
            validate_surrogate_bench(tampered)

    def test_error_violation_fails_the_gate(self, baseline):
        current = json.loads(json.dumps(baseline))
        current["errors"]["l2_hit_rate"]["median_abs_rel_err"] = 0.5
        report = compare_surrogate_bench(current, baseline)
        assert report["ok"] is False
        assert "l2_hit_rate" in report["error_violations"]

    def test_throughput_collapse_fails_the_gate(self, baseline):
        current = json.loads(json.dumps(baseline))
        current["throughput"]["predictions_per_s"] = 1.0
        report = compare_surrogate_bench(current, baseline)
        assert report["ok"] is False
        assert report["throughput_ok"] is False

    def test_validation_rejects_malformed_documents(self):
        with pytest.raises(SurrogateError):
            validate_surrogate_bench({"schema_version": 999})
        with pytest.raises(SurrogateError):
            validate_surrogate_bench(
                {"schema_version": 1, "kind": "service-bench"}
            )
