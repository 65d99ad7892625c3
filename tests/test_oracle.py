"""Tests for the differential golden-model oracle (``repro.oracle``)."""

import json
from dataclasses import replace

import pytest

from repro.config import config_c1, config_c2, config_c3
from repro.errors import OracleError
from repro.io import canonical_json
from repro.oracle import (
    MUTANTS,
    LockstepRunner,
    build_report,
    diverges,
    make_pair,
    pressure_config,
    run_diff,
    shrink_sequence,
    validate_report,
)
from repro.tracing import TraceCollector

US = 1e-6


# --------------------------------------------------------------------------
# Zero divergence on fixed code
# --------------------------------------------------------------------------


class TestZeroDivergence:
    """The optimized L2 and the naive reference agree access for access."""

    @pytest.mark.parametrize("profile", ["cfd", "lbm", "bfs"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_paper_config_agrees(self, profile, seed):
        report = run_diff(profile, config_c1(), seed=seed, accesses=800)
        assert report["divergence"] is None
        assert report["shrunk"] is None
        assert report["checked_accesses"] == 800

    @pytest.mark.parametrize("make_config", [config_c2, config_c3])
    def test_other_table2_configs_agree(self, make_config):
        report = run_diff("kmeans", make_config(), seed=0, accesses=600)
        assert report["divergence"] is None

    @pytest.mark.parametrize("profile", ["lbm", "stencil", "bfs"])
    def test_small_config_under_pressure_agrees(self, profile):
        """The tiny config forces evictions/migrations/refreshes constantly."""
        report = run_diff(profile, pressure_config(), seed=3, accesses=2000)
        assert report["divergence"] is None

    @pytest.mark.parametrize("engine", ["object", "soa"])
    @pytest.mark.parametrize("profile", ["lbm", "bfs"])
    def test_swap_buffer_overflow_agrees(self, profile, engine):
        """One-line swap buffers overflow constantly, so every full push
        forces the oldest entry out (the reference's ``force_pop``)."""
        base = pressure_config()
        config = replace(base, l2=replace(base.l2, migration_buffer_lines=1))
        report = run_diff(
            profile, config, seed=7, accesses=3000, dt_s=1e-10, engine=engine
        )
        assert report["divergence"] is None
        counters = report["counters"]
        assert counters["buffer.hr_to_lr.overflows"] > 0
        assert counters["buffer.lr_to_hr.overflows"] > 0

    def test_report_counters_reflect_real_traffic(self):
        report = run_diff("lbm", pressure_config(), seed=0, accesses=2000)
        counters = report["counters"]
        # the pressure config must actually exercise the interesting paths,
        # otherwise the zero-divergence above proves nothing
        assert counters["l2.migrations_to_lr"] > 0
        assert counters["l2.returns_to_hr"] > 0
        assert counters["refresh.lr_refreshes"] > 0
        assert counters["search.second_probes"] > 0


# --------------------------------------------------------------------------
# Mutants: the oracle must catch known-bad variants, quickly
# --------------------------------------------------------------------------


class TestMutantDetection:
    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_caught_and_shrunk_small(self, mutant):
        report = run_diff(
            "lbm", pressure_config(), seed=0, accesses=2000,
            mutant=mutant, shrink=True,
        )
        divergence = report["divergence"]
        assert divergence is not None, f"oracle missed mutant {mutant!r}"
        assert divergence["index"] <= 2000
        shrunk = report["shrunk"]
        assert shrunk is not None
        assert 1 <= len(shrunk["accesses"]) <= 50
        assert shrunk["divergence"] is not None

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_shrunk_reproducer_is_1_minimal(self, mutant):
        """Removing any single access from the reproducer kills the bug."""
        config = pressure_config()
        report = run_diff(
            "lbm", config, seed=0, accesses=2000, mutant=mutant, shrink=True,
        )
        minimal = [tuple(a) for a in report["shrunk"]["accesses"]]
        assert diverges(config, minimal, mutant=mutant)
        for drop in range(len(minimal)):
            candidate = minimal[:drop] + minimal[drop + 1:]
            if candidate:
                assert not diverges(config, candidate, mutant=mutant), (
                    f"dropping access {drop} still diverges: not 1-minimal"
                )

    def test_probe_order_flagged_on_first_hit(self):
        """The swapped probe order shows up in latency/energy immediately."""
        report = run_diff(
            "cfd", config_c1(), seed=0, accesses=200, mutant="probe-order",
        )
        divergence = report["divergence"]
        assert divergence is not None
        fields = {f["field"] for f in divergence["fields"]}
        assert "result.latency_s" in fields or "result.probes" in fields

    def test_unknown_mutant_raises(self):
        from repro.oracle import build_mutant

        with pytest.raises(OracleError, match="unknown mutant"):
            build_mutant("definitely-not-a-mutant")


# --------------------------------------------------------------------------
# Lockstep runner plumbing
# --------------------------------------------------------------------------


class TestLockstepRunner:
    def test_end_state_snapshot_divergence(self):
        """State-only drift is reported at index == len(sequence)."""
        dut, ref = make_pair(pressure_config())
        dut.access(0x4000, True, 1 * US)  # DUT advanced, reference not
        divergence = LockstepRunner(dut, ref).run([])
        assert divergence is not None
        assert divergence["index"] == 0
        assert divergence["address"] is None
        fields = {f["field"] for f in divergence["fields"]}
        assert "state.hr.residents" in fields

    def test_tracer_pinpoints_divergence(self):
        tracer = TraceCollector()
        dut, ref = make_pair(pressure_config(), mutant="probe-order",
                             tracer=tracer)
        sequence = [(0x4000, True, 1 * US), (0x4000, True, 3 * US)]
        divergence = LockstepRunner(dut, ref, tracer=tracer).run(sequence)
        assert divergence is not None
        summary = tracer.summary()
        assert summary["counters"]["oracle.divergences"] == 1
        assert summary["counters"]["oracle.accesses_checked"] >= 1
        trace = tracer.to_chrome_trace()
        events = [e for e in trace["traceEvents"]
                  if e.get("name") == "oracle.divergence"]
        assert len(events) == 1
        assert events[0]["args"]["index"] == divergence["index"]
        assert events[0]["args"]["address"] == divergence["address"]

    def test_rejects_non_twopart_configs(self):
        from repro.config import baseline_sram, baseline_stt
        from repro.oracle import l2_kwargs_from_config

        with pytest.raises(OracleError, match="two-part"):
            l2_kwargs_from_config(baseline_sram().l2)
        with pytest.raises(OracleError, match="two-part"):
            l2_kwargs_from_config(baseline_stt().l2)

    def test_rejects_zero_accesses(self):
        with pytest.raises(OracleError, match="at least one access"):
            run_diff("cfd", pressure_config(), accesses=0)


# --------------------------------------------------------------------------
# Shrinker
# --------------------------------------------------------------------------


def _contains_all(needles):
    return lambda candidate: all(n in candidate for n in needles)


class TestShrinker:
    def test_finds_exact_minimal_subset(self):
        sequence = [(i, False, float(i)) for i in range(40)]
        needles = [sequence[3], sequence[17], sequence[31]]
        minimal = shrink_sequence(sequence, _contains_all(needles))
        assert sorted(minimal) == sorted(needles)

    def test_preserves_order_and_timestamps(self):
        sequence = [(i, bool(i % 2), i * 0.5) for i in range(16)]
        minimal = shrink_sequence(
            sequence, _contains_all([sequence[2], sequence[9]])
        )
        assert minimal == [sequence[2], sequence[9]]

    def test_single_element_input(self):
        sequence = [(7, True, 1.0)]
        assert shrink_sequence(sequence, lambda c: bool(c)) == sequence

    def test_empty_input_raises(self):
        with pytest.raises(OracleError, match="empty"):
            shrink_sequence([], lambda c: True)

    def test_non_failing_input_raises(self):
        with pytest.raises(OracleError, match="does not diverge"):
            shrink_sequence([(1, False, 0.1)], lambda c: False)

    def test_evaluation_budget_enforced(self):
        sequence = [(i, False, float(i)) for i in range(64)]
        with pytest.raises(OracleError, match="exceeded"):
            shrink_sequence(
                sequence, _contains_all(sequence[::2]), max_evaluations=5
            )


# --------------------------------------------------------------------------
# Report documents
# --------------------------------------------------------------------------


def _example_report(**overrides):
    payload = run_diff("lbm", pressure_config(), seed=0, accesses=120,
                       mutant="probe-order", shrink=True)
    payload.update(overrides)
    return payload


class TestReport:
    def test_round_trips_through_canonical_json(self):
        report = _example_report()
        rendered = canonical_json(report)
        reloaded = json.loads(rendered)
        assert validate_report(reloaded) is reloaded
        assert canonical_json(reloaded) == rendered

    def test_clean_report_validates(self):
        report = run_diff("cfd", pressure_config(), seed=0, accesses=60)
        assert validate_report(report) is report
        assert report["divergence"] is None

    def test_deterministic_across_runs(self):
        first = run_diff("stencil", pressure_config(), seed=5, accesses=300)
        second = run_diff("stencil", pressure_config(), seed=5, accesses=300)
        assert canonical_json(first) == canonical_json(second)

    @pytest.mark.parametrize("mutation, match", [
        ({"schema_version": 99}, "schema version"),
        ({"kind": "weird"}, "not an oracle report"),
        ({"seed": "zero"}, "seed"),
        ({"mutant": 4}, "mutant"),
        ({"counters": None}, "counters"),
    ])
    def test_rejects_malformed_top_level(self, mutation, match):
        with pytest.raises(OracleError, match=match):
            validate_report(_example_report(**mutation))

    def test_rejects_missing_divergence_fields(self):
        report = _example_report()
        del report["divergence"]["fields"]
        with pytest.raises(OracleError, match="missing key 'fields'"):
            validate_report(report)

    def test_rejects_orphan_shrunk_block(self):
        report = _example_report()
        clean = build_report(
            profile=report["profile"], config=report["config"],
            seed=report["seed"], accesses=report["accesses"],
            dt_s=report["dt_s"], mutant=report["mutant"],
            checked_accesses=report["checked_accesses"],
            divergence=None, shrunk=report["shrunk"],
            counters=report["counters"],
        )
        with pytest.raises(OracleError, match="no divergence"):
            validate_report(clean)

    def test_rejects_bad_shrunk_access_shape(self):
        report = _example_report()
        report["shrunk"]["accesses"][0] = [1, 2]
        with pytest.raises(OracleError, match="shrunk.accesses"):
            validate_report(report)
