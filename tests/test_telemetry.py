"""Tests for the telemetry layer: manifests, cache, content keys."""

import json

import pytest

from repro.experiments.parallel import run_battery
from repro.telemetry import (
    CACHE_SCHEMA_VERSION,
    MANIFEST_SCHEMA_VERSION,
    JobRecord,
    ResultCache,
    RunTelemetry,
    config_fingerprint,
    content_key,
)


class TestContentKeys:
    def test_key_is_order_insensitive(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})

    def test_key_is_value_sensitive(self):
        assert content_key({"a": 1}) != content_key({"a": 2})

    def test_config_fingerprint_stable(self):
        assert config_fingerprint() == config_fingerprint()
        assert len(config_fingerprint()) == 64


class TestResultCache:
    def test_get_put_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"x": 1.5, "rows": [[1, 2]], "s": "txt"}
        key = content_key({"k": "v"})
        assert cache.get(key) is None
        cache.put(key, {"k": "v"}, payload)
        assert cache.get(key) == payload
        assert len(cache) == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key({"k": "v"})
        cache.put(key, {"k": "v"}, {"x": 1})
        cache.path_for(key).write_text("{ not json")
        assert cache.get(key) is None

    def test_schema_mismatch_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key({"k": "v"})
        cache.put(key, {"k": "v"}, {"x": 1})
        entry = json.loads(cache.path_for(key).read_text())
        entry["cache_schema_version"] = CACHE_SCHEMA_VERSION + 1
        cache.path_for(key).write_text(json.dumps(entry))
        assert cache.get(key) is None


class TestManifest:
    def _telemetry(self):
        telemetry = RunTelemetry(jobs=2, trace_length=1000, seed=0,
                                 experiments=["fig3"])
        telemetry.record(JobRecord(
            key="k1", kind="fig3", benchmark="nn", trace_length=1000, seed=0,
            experiments=["fig3"], worker=123, wall_time_s=0.5,
            cache_hit=False, counters={"l2_writes": 42},
        ))
        telemetry.record(JobRecord(
            key="k2", kind="fig3", benchmark="bfs", trace_length=1000, seed=0,
            experiments=["fig3"], worker=124, wall_time_s=0.25,
            cache_hit=True,
        ))
        return telemetry

    def test_manifest_schema(self):
        document = self._telemetry().manifest()
        assert document["schema_version"] == MANIFEST_SCHEMA_VERSION
        run = document["run"]
        for field in ("jobs", "cache_dir", "cache_enabled", "trace_length",
                      "seed", "benchmarks", "experiments",
                      "config_fingerprint", "wall_time_s"):
            assert field in run
        totals = document["totals"]
        assert totals == {
            "jobs": 2, "cache_hits": 1, "cache_misses": 1,
            "wall_time_s": pytest.approx(0.75),
        }
        job = document["jobs"][0]
        for field in ("key", "kind", "benchmark", "trace_length", "seed",
                      "experiments", "worker", "wall_time_s", "cache_hit",
                      "counters"):
            assert field in job
        assert job["counters"] == {"l2_writes": 42}

    def test_write_and_load_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        self._telemetry().write(path)
        document = json.loads(path.read_text())
        assert document["totals"]["jobs"] == 2

    def test_manifest_is_json_serializable_end_to_end(self, tmp_path):
        """A real battery run produces a loadable manifest."""
        _, telemetry = run_battery(["table1", "fig3"], trace_length=800,
                                   benchmarks=["nn"],
                                   cache_dir=str(tmp_path / "cache"))
        path = tmp_path / "m.json"
        telemetry.write(path)
        document = json.loads(path.read_text())
        assert document["run"]["cache_enabled"] is True
        assert document["totals"]["jobs"] == 2
        kinds = {job["kind"] for job in document["jobs"]}
        assert kinds == {"table1", "fig3"}
