"""Tests for the parallel experiment harness (decompose / execute / merge)."""

import hashlib
import inspect

import pytest

from repro.config import config_c1
from repro.core.factory import twopart_kwargs
from repro.core.twopart import TwoPartSTTL2
from repro.errors import ReproError
from repro.experiments import fig6, fig8
from repro.experiments.parallel import (
    JobSpec,
    decompose,
    execute_job,
    job_descriptor,
    job_key,
    merge_experiment,
    run_battery,
)
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.io import canonical_json, experiment_result_to_dict
from repro.telemetry import ResultCache
from tests.pinned import (
    EXPERIMENT_BENCHMARKS,
    EXPERIMENT_DIGESTS,
    EXPERIMENT_TRACE_LENGTH,
)

SMALL = 1000
SUBSET = ["nn", "bfs"]


class TestDecompose:
    def test_one_job_per_benchmark(self):
        specs = decompose("fig3", trace_length=SMALL, benchmarks=SUBSET, seed=0)
        assert [s.benchmark for s in specs] == SUBSET
        assert all(s.kind == "fig3" for s in specs)

    def test_tables_are_single_jobs(self):
        assert decompose("table1") == [JobSpec("table1", None, None, None)]
        assert decompose("table2") == [JobSpec("table2", None, None, None)]

    def test_fig8_regions_variance_share_kind(self):
        fig8_specs = decompose("fig8", SMALL, SUBSET, seed=0)
        regions_specs = decompose("regions", SMALL, SUBSET, seed=0)
        variance_specs = decompose("variance", SMALL, SUBSET, seed=0)
        assert fig8_specs == regions_specs
        # the variance sweep's seed-0 slice is exactly the fig8 job set
        assert [s for s in variance_specs if s.seed == 0] == fig8_specs
        assert {s.seed for s in variance_specs} == {0, 1, 2}

    def test_fig6_and_energy_share_one_replay(self):
        fig6_specs = decompose("fig6", SMALL, SUBSET, seed=0)
        assert decompose("energy", SMALL, SUBSET, seed=0) == fig6_specs
        assert {s.kind for s in fig6_specs} == {"c1"}

    def test_c1_characterization_specs_are_shared(self):
        fig6_specs = decompose("fig6", SMALL, SUBSET, seed=0)
        for name in ("fig4", "fig5", "energy"):
            specs = decompose(name, SMALL, SUBSET, seed=0)
            assert [s for s in specs if s.kind == "c1"] == fig6_specs, name
        assert {s.kind for s in decompose("fig4", SMALL, SUBSET)} == {"fig4", "c1"}
        assert {s.kind for s in decompose("fig5", SMALL, SUBSET)} == {"fig5", "c1"}

    def test_scaling_uses_its_default_mix(self):
        specs = decompose("scaling", trace_length=SMALL)
        assert [s.benchmark for s in specs] == ["bfs", "stencil"]

    def test_unknown_experiment_raises(self):
        with pytest.raises(ReproError):
            decompose("fig99")

    def test_job_key_depends_on_inputs(self):
        a = job_key(JobSpec("fig3", "nn", SMALL, 0))
        assert a == job_key(JobSpec("fig3", "nn", SMALL, 0))
        assert a != job_key(JobSpec("fig3", "nn", SMALL, 1))
        assert a != job_key(JobSpec("fig3", "bfs", SMALL, 0))
        assert a != job_key(JobSpec("fig4", "nn", SMALL, 0))


class TestSerialParallelEquivalence:
    def test_run_all_jobs4_identical_to_serial(self):
        serial, _ = run_battery(EXPERIMENTS, trace_length=SMALL, benchmarks=SUBSET)
        parallel, _ = run_battery(
            EXPERIMENTS, trace_length=SMALL, benchmarks=SUBSET, jobs=4
        )
        assert set(serial) == set(EXPERIMENTS)
        for name in EXPERIMENTS:
            assert parallel[name].headers == serial[name].headers, name
            assert parallel[name].rows == serial[name].rows, name
            assert parallel[name].extras == serial[name].extras, name

    def test_run_experiment_jobs_identical(self):
        serial = run_experiment("fig4", trace_length=SMALL, benchmarks=SUBSET)
        parallel = run_experiment("fig4", trace_length=SMALL, benchmarks=SUBSET,
                                  jobs=2)
        assert parallel.rows == serial.rows
        assert parallel.extras == serial.extras

    def test_merge_matches_module_run(self):
        """merge_experiment over execute_job payloads == the module's merge
        over simulations run directly."""
        specs = decompose("fig8", SMALL, SUBSET, seed=0)
        payloads = {spec: execute_job(spec) for spec in specs}
        merged = merge_experiment("fig8", specs, payloads)
        sims = fig8.run_simulations(SMALL, SUBSET, seed=0)
        direct = fig8.merge(
            SUBSET, [fig8.payload_from_sims(sims[name]) for name in SUBSET]
        )
        assert merged.rows == direct.rows
        assert merged.extras == direct.extras


class TestCache:
    def test_cold_then_warm_round_trip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold, tel_cold = run_battery(
            ["fig3", "fig8"], trace_length=SMALL, benchmarks=SUBSET,
            cache_dir=cache_dir,
        )
        assert tel_cold.cache_hits == 0
        assert tel_cold.cache_misses == len(tel_cold.records) > 0

        warm, tel_warm = run_battery(
            ["fig3", "fig8"], trace_length=SMALL, benchmarks=SUBSET,
            cache_dir=cache_dir,
        )
        assert tel_warm.cache_misses == 0
        assert tel_warm.cache_hits == tel_cold.cache_misses
        for name in ("fig3", "fig8"):
            assert warm[name].rows == cold[name].rows
            assert warm[name].extras == cold[name].extras

    def test_no_cache_flag_disables_lookup(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_battery(["fig3"], trace_length=SMALL, benchmarks=["nn"],
                    cache_dir=cache_dir)
        _, telemetry = run_battery(["fig3"], trace_length=SMALL,
                                   benchmarks=["nn"], cache_dir=cache_dir,
                                   use_cache=False)
        assert telemetry.cache_hits == 0
        assert not telemetry.cache_enabled

    def test_energy_after_fig6_is_all_hits(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_battery(["fig6"], trace_length=SMALL, benchmarks=SUBSET,
                    cache_dir=cache_dir)
        _, telemetry = run_battery(["energy"], trace_length=SMALL,
                                   benchmarks=SUBSET, cache_dir=cache_dir)
        assert telemetry.cache_misses == 0
        assert telemetry.cache_hits == len(SUBSET)

    def test_parent_format_c1replay_entry_never_reaches_fig4(self, tmp_path):
        # an entry under the old kind name lacks the write counts fig4 merges
        cache = ResultCache(str(tmp_path / "cache"))
        old = JobSpec("c1replay", "nn", SMALL, 0)
        payload = fig6.compute("nn", trace_length=SMALL)
        for key in ("hr_data_writes", "lr_data_writes", "total_data_writes",
                    "lr_write_share"):
            del payload[key]
        cache.put(job_key(old), job_descriptor(old), payload)
        cached, telemetry = run_battery(["fig4"], trace_length=SMALL,
                                        benchmarks=["nn"], cache=cache)
        assert telemetry.cache_hits == 0
        assert {r.kind for r in telemetry.records} == {"fig4", "c1"}
        fresh, _ = run_battery(["fig4"], trace_length=SMALL, benchmarks=["nn"],
                               use_cache=False)
        assert cached["fig4"].rows == fresh["fig4"].rows

    def test_different_seed_misses(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_battery(["fig3"], trace_length=SMALL, benchmarks=["nn"], seed=0,
                    cache_dir=cache_dir)
        _, telemetry = run_battery(["fig3"], trace_length=SMALL,
                                   benchmarks=["nn"], seed=7,
                                   cache_dir=cache_dir)
        assert telemetry.cache_hits == 0


class TestBattery:
    def test_shared_jobs_deduplicated(self):
        _, telemetry = run_battery(
            ["fig8", "regions"], trace_length=SMALL, benchmarks=SUBSET,
        )
        # one record per unique job, each owned by both experiments
        assert len(telemetry.records) == len(SUBSET)
        for record in telemetry.records:
            assert sorted(record.experiments) == ["fig8", "regions"]

    def test_c1_characterization_runs_once_per_benchmark(self, monkeypatch):
        """fig4, fig5, fig6 and energy run 3 jobs per benchmark, and build
        the C1 L2 once per benchmark."""
        c1 = twopart_kwargs(config_c1().l2)
        signature = inspect.signature(TwoPartSTTL2.__init__)
        original = TwoPartSTTL2.__init__
        c1_builds = []

        def counting_init(self, *args, **kwargs):
            bound = signature.bind(self, *args, **kwargs)
            bound.apply_defaults()
            if all(bound.arguments[k] == v for k, v in c1.items()):
                c1_builds.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(TwoPartSTTL2, "__init__", counting_init)
        _, telemetry = run_battery(
            ["fig4", "fig5", "fig6", "energy"], trace_length=SMALL,
            benchmarks=SUBSET,
        )
        assert len(telemetry.records) == 3 * len(SUBSET)
        assert len(c1_builds) == len(SUBSET)

    def test_rejects_bad_jobs_value(self):
        with pytest.raises(ReproError):
            run_battery(["fig3"], trace_length=SMALL, benchmarks=["nn"], jobs=0)

    def test_counters_surface_in_records(self):
        _, telemetry = run_battery(["fig8"], trace_length=SMALL,
                                   benchmarks=["nn"])
        (record,) = telemetry.records
        assert record.counters["l2_requests"] > 0
        assert record.counters["dram_accesses"] >= 0


def test_characterization_results_hold_their_pins():
    results, _ = run_battery(
        sorted(EXPERIMENT_DIGESTS),
        trace_length=EXPERIMENT_TRACE_LENGTH,
        benchmarks=list(EXPERIMENT_BENCHMARKS),
        use_cache=False,
    )
    digests = {
        name: hashlib.sha256(
            canonical_json(experiment_result_to_dict(result)).encode()
        ).hexdigest()
        for name, result in results.items()
    }
    assert digests == EXPERIMENT_DIGESTS
