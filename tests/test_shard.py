"""Sharded-engine gates: partitioning, deterministic merge, and parity.

The sharded engine (``repro.shard``, see docs/sharding.md) partitions the
trace by the L2 bank hash and replays each sub-stream on an independent
per-shard simulator, merging the per-shard payloads into one
:class:`~repro.gpu.metrics.SimulationResult`.  These tests enforce its
two load-bearing claims:

* **Degenerate parity** — ``--engine sharded --shards 1`` is
  byte-identical to the ``soa`` engine (same canonical dict, same
  pinned SHA-256 digest) on every scenario of the tier-1 digest table
  (``tests/pinned.py``), and four shards reproduce their own pinned
  digests.
* **Deterministic merge** — the merged result is a pure function of the
  payload *set*: shuffling bank completion order, or changing the worker
  count, never moves the digest.

Plus the engine's supporting behaviours: idle-bank-aware
``BankStats`` (``None`` rates for idle banks, idle banks excluded from
``summarize_banks`` averages), idle-shard payload synthesis, shard-plan
validation errors, the lockstep oracle with a sharded DUT, and the
default worker count.
"""

import multiprocessing
import os
import random

import pytest

import repro.experiments.parallel as parallel
import repro.workloads.trace as trace_module
from repro.benchmarks import host_metadata, result_digest
from repro.cache.banked import BankStats, BankedCache, summarize_banks
from repro.config import all_configs
from repro.engine import make_simulator
from repro.errors import ConfigurationError, OracleError, SimulationError
from repro.io import simulation_result_to_dict
from repro.oracle import make_pair, pressure_config
from repro.shard import (
    BankJob,
    ShardedGPUSimulator,
    idle_payload,
    merge_bank_payloads,
    partition_trace,
    plan_shards,
    run_bank_job,
    shard_l2_config,
    shard_substream,
)
from repro.workloads import build_workload
from tests.pinned import (
    ALL_SCENARIOS, QUICK_SCENARIOS, RESULT_DIGESTS, SUBSTREAM_DIGESTS,
)
from tests.test_workloads import trace_digest


def _digest(sub):
    """A sub-stream's trace digest; ``None`` for an idle shard."""
    return None if sub is None else trace_digest(sub)


def _workload(scenario, config):
    return build_workload(
        scenario.workload,
        num_accesses=scenario.trace_length,
        num_sms=config.num_sms,
        seed=scenario.seed,
    )


class TestShardPlan:
    def test_shard_counts_must_be_powers_of_two_within_bank_count(self):
        config = all_configs()["C1"]
        for bad in (0, 3, -2, config.l2.num_banks * 2):
            with pytest.raises(ConfigurationError):
                plan_shards(config, bad)
        with pytest.raises(ConfigurationError):
            plan_shards(config, "4")

    def test_shards_1_leaves_the_l2_config_untouched(self):
        l2 = all_configs()["C1"].l2
        assert shard_l2_config(l2, 1) is l2

    def test_scaled_config_divides_capacity_and_banks(self):
        config = all_configs()["C1"]
        plan = plan_shards(config, 4)
        sub = plan.sub_config.l2
        assert sub.num_banks == config.l2.num_banks // 4
        # bank bijection: global = (local << shard_bits) | shard
        seen = sorted(
            (local << plan.shard_bits) | shard
            for shard in range(4) for local in range(sub.num_banks)
        )
        assert seen == list(range(config.l2.num_banks))

    def test_partition_matches_the_bank_hash_and_remap_drops_shard_bits(self):
        config = all_configs()["C1"]
        workload = _workload(QUICK_SCENARIOS[0], config)
        line = config.l2.line_size
        subs = partition_trace(workload.trace, line, 4)
        assert len(subs) == 4
        assert sum(len(s) for s in subs if s is not None) == \
            len(workload.trace)
        owners = BankedCache(4, line).assign(workload.trace.address)
        for shard in range(4):
            expected = int((owners == shard).sum())
            actual = 0 if subs[shard] is None else len(subs[shard])
            assert actual == expected

    @pytest.mark.parametrize("chunk", [trace_module.CHUNK_RECORDS, 97])
    def test_sub_streams_hold_their_pins_at_any_chunk(self, monkeypatch, chunk):
        # generation reads the chunk too: build at the default one, so the
        # small chunk reaches only the cut
        traces = {}
        for key in SUBSTREAM_DIGESTS:
            name, length, _ = key.split("/")
            if (name, length) not in traces:
                traces[name, length] = build_workload(
                    name, num_accesses=int(length), seed=0
                ).trace
        monkeypatch.setattr(trace_module, "CHUNK_RECORDS", chunk)
        moved = []
        for key, expected in SUBSTREAM_DIGESTS.items():
            name, length, shards = key.split("/")
            trace, shards = traces[name, length], int(shards[1:])
            cut = tuple(
                _digest(shard_substream(trace, 256, shards, shard))
                for shard in range(shards)
            )
            split = tuple(
                _digest(sub) for sub in partition_trace(trace, 256, shards)
            )
            if cut != expected or split != expected:
                moved.append(key)
        assert moved == []

    def test_substream_rejects_a_shard_outside_the_range(self):
        trace = build_workload("bfs", num_accesses=500, seed=0).trace
        for shards, shard in ((4, -1), (4, 4), (1, 1)):
            with pytest.raises(ConfigurationError, match="outside"):
                shard_substream(trace, 256, shards, shard)

    def test_partition_shards_1_is_identity(self):
        config = all_configs()["C1"]
        workload = _workload(QUICK_SCENARIOS[0], config)
        subs = partition_trace(workload.trace, config.l2.line_size, 1)
        assert len(subs) == 1 and subs[0] is workload.trace


class TestShardedParity:
    @pytest.mark.parametrize(
        "scenario", ALL_SCENARIOS, ids=lambda s: s.key.replace("/", "-")
    )
    def test_shards_1_is_byte_identical_to_soa(self, scenario):
        config = all_configs()[scenario.config]
        workload = _workload(scenario, config)
        soa = make_simulator(config, workload, engine="soa").run()
        sharded_sim = make_simulator(
            config, workload, engine="sharded", shards=1
        )
        assert isinstance(sharded_sim, ShardedGPUSimulator)
        sharded = sharded_sim.run()
        assert simulation_result_to_dict(soa) == \
            simulation_result_to_dict(sharded)
        pinned = RESULT_DIGESTS[scenario.key]["exact"]
        assert result_digest(soa) == pinned
        assert result_digest(sharded) == pinned

    @pytest.mark.parametrize(
        "scenario", ALL_SCENARIOS, ids=lambda s: s.key.replace("/", "-")
    )
    def test_shards_4_digest_is_pinned(self, scenario):
        """Four shards approximate ``soa``; their result is still pinned."""
        config = all_configs()[scenario.config]
        result = make_simulator(
            config, _workload(scenario, config), engine="sharded", shards=4
        ).run()
        assert result_digest(result) == RESULT_DIGESTS[scenario.key]["shards4"]

    def test_worker_count_never_changes_the_digest(self):
        scenario = QUICK_SCENARIOS[0]
        config = all_configs()[scenario.config]
        workload = _workload(scenario, config)
        serial = ShardedGPUSimulator(
            config, workload, shards=4, workers=1
        ).run()
        pooled = ShardedGPUSimulator(
            config, workload, shards=4, workers=4
        ).run()
        assert result_digest(serial) == result_digest(pooled)
        assert simulation_result_to_dict(serial) == \
            simulation_result_to_dict(pooled)

    def test_spawned_workers_match_forked_and_serial_runs(self, monkeypatch):
        """Under ``spawn`` the workers unpickle the run instead of
        inheriting it; the result must not depend on which."""
        config = all_configs()["C1"]
        workload = build_workload(
            "lbm", num_accesses=6000, num_sms=config.num_sms, seed=0
        )

        def digest(workers):
            return result_digest(ShardedGPUSimulator(
                config, workload, shards=4, workers=workers
            ).run())

        serial, forked = digest(1), digest(2)
        contexts = []

        def spawn():
            contexts.append(multiprocessing.get_context("spawn"))
            return contexts[-1]

        monkeypatch.setattr(parallel, "_pool_context", spawn)
        assert digest(2) == serial == forked
        assert contexts

    def test_shuffled_bank_completion_order_is_digest_invariant(self):
        """The merge is a pure function of the payload set: any arrival
        permutation folds to the same bytes."""
        scenario = QUICK_SCENARIOS[0]
        config = all_configs()[scenario.config]
        workload = _workload(scenario, config)
        sim = ShardedGPUSimulator(config, workload, shards=4, workers=1)
        reference = sim.run()
        payloads = list(sim.bank_payloads)
        rng = random.Random(7)
        for _ in range(5):
            rng.shuffle(payloads)
            merged = merge_bank_payloads(config, workload, payloads)
            assert result_digest(merged) == result_digest(reference)
            assert simulation_result_to_dict(merged) == \
                simulation_result_to_dict(reference)

    def test_merge_rejects_missing_and_duplicate_shards(self):
        scenario = QUICK_SCENARIOS[0]
        config = all_configs()[scenario.config]
        workload = _workload(scenario, config)
        sim = ShardedGPUSimulator(config, workload, shards=4, workers=1)
        sim.run()
        payloads = list(sim.bank_payloads)
        with pytest.raises(SimulationError):
            merge_bank_payloads(config, workload, payloads[:-1])
        with pytest.raises(SimulationError):
            merge_bank_payloads(
                config, workload, payloads[:-1] + [payloads[0]]
            )

    def test_merge_rejects_mixed_two_part_and_uniform_payloads(self):
        config = all_configs()["C1"]
        workload = build_workload(
            "bfs", num_accesses=2000, num_sms=config.num_sms, seed=0
        )
        sim = ShardedGPUSimulator(config, workload, shards=2, workers=1)
        sim.run()
        uniform = dict(sim.bank_payloads[1], twopart=None)
        with pytest.raises(SimulationError, match="twopart"):
            merge_bank_payloads(
                config, workload, [sim.bank_payloads[0], uniform]
            )

    def test_merged_bank_stats_cover_every_global_bank(self):
        scenario = QUICK_SCENARIOS[0]
        config = all_configs()[scenario.config]
        workload = _workload(scenario, config)
        result = ShardedGPUSimulator(
            config, workload, shards=4, workers=1
        ).run()
        assert result.bank_stats is not None
        assert len(result.bank_stats) == config.l2.num_banks
        assert sum(b.requests for b in result.bank_stats) > 0

    def test_bank_stats_never_reach_the_canonical_dict(self):
        """Digest surface is frozen: bank_stats is observability-only."""
        scenario = QUICK_SCENARIOS[0]
        config = all_configs()[scenario.config]
        workload = _workload(scenario, config)
        result = make_simulator(config, workload, engine="soa").run()
        assert result.bank_stats is not None
        assert "bank_stats" not in simulation_result_to_dict(result)


class TestEngineSeam:
    def test_shards_kwarg_requires_the_sharded_engine(self):
        config = all_configs()["C1"]
        workload = build_workload(
            "bfs", num_accesses=200, num_sms=config.num_sms, seed=0
        )
        with pytest.raises(ConfigurationError):
            make_simulator(config, workload, engine="soa", shards=4)
        with pytest.raises(ConfigurationError):
            make_simulator(config, workload, workers=2)

    @pytest.mark.parametrize("engine", ["object", "soa", "sharded"])
    def test_unknown_keywords_are_rejected_on_every_engine(self, engine):
        config = all_configs()["C1"]
        workload = build_workload(
            "bfs", num_accesses=200, num_sms=config.num_sms, seed=0
        )
        extra = {"shards": 2} if engine == "sharded" else {}
        with pytest.raises(ConfigurationError, match="track_interval"):
            make_simulator(
                config, workload, engine=engine, track_interval=True, **extra
            )
        with pytest.raises(ConfigurationError, match="deferred_l1_fills"):
            make_simulator(
                config, workload, engine=engine, deferred_l1_fills=False,
                **extra,
            )
        # the CLI's untraced path passes tracer=None to every engine
        sim = make_simulator(config, workload, engine=engine, tracer=None,
                             **extra)
        assert sim.run().workload == workload.name

    def test_sharded_is_never_auto_selected(self):
        config = all_configs()["C1"]
        workload = build_workload(
            "bfs", num_accesses=200, num_sms=config.num_sms, seed=0
        )
        sim = make_simulator(config, workload)
        assert not isinstance(sim, ShardedGPUSimulator)

    def test_worker_count_must_be_positive(self):
        config = all_configs()["C1"]
        workload = build_workload(
            "bfs", num_accesses=200, num_sms=config.num_sms, seed=0
        )
        with pytest.raises(ConfigurationError):
            ShardedGPUSimulator(config, workload, shards=2, workers=0)

    def test_default_workers_follow_the_cpu_affinity_mask(self, monkeypatch):
        """A process pinned to one CPU of a larger host gets one worker."""
        config = all_configs()["C1"]
        workload = build_workload(
            "bfs", num_accesses=200, num_sms=config.num_sms, seed=0
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        assert ShardedGPUSimulator(config, workload, shards=4).workers == 1
        assert host_metadata()["cpus"] == 1
        # without an affinity call the host's CPU count is the fallback
        monkeypatch.delattr(os, "sched_getaffinity")
        assert ShardedGPUSimulator(config, workload, shards=4).workers == 4
        assert host_metadata()["cpus"] == 8


class TestIdleShards:
    def test_idle_payload_keeps_static_figures_and_zero_activity(self):
        config = all_configs()["C1"]
        payload = idle_payload(2, 4, plan_shards(config, 4).sub_config)
        assert payload["idle"] is True
        assert payload["accesses"] == 0
        assert payload["leakage_power_w"] > 0
        assert payload["area_m2"] > 0
        assert payload["energy"]["total_j"] == 0.0
        assert all(v == 0 for v in payload["rollup"].values())

    @pytest.mark.parametrize("config_name", ["C1", "stt-baseline"])
    def test_idle_payload_has_the_live_payload_schema(self, config_name):
        def schema(payload):
            return {
                key: schema(value) if isinstance(value, dict) else None
                for key, value in payload.items()
            }

        config = all_configs()[config_name]
        plan = plan_shards(config, 2)
        workload = build_workload(
            "bfs", num_accesses=500, num_sms=config.num_sms, seed=0
        )
        live = run_bank_job(BankJob(
            shard=0, shards=2, config=plan.sub_config, workload=workload,
        ))
        idle = idle_payload(1, 2, plan.sub_config)
        assert schema(idle) == schema(live)
        assert len(idle["bank_stats"]) == len(live["bank_stats"])

    def test_single_sm_trace_leaves_idle_shards_idle(self):
        """A trace touching one address only populates one shard; the
        other shards contribute idle payloads and the run still merges."""
        config = all_configs()["C1"]
        workload = build_workload(
            "bfs", num_accesses=64, num_sms=config.num_sms, seed=0
        )
        # rewrite every address to land in shard 0 (lineno bits zeroed)
        trace = workload.trace
        line = config.l2.line_size
        from dataclasses import replace

        addresses = (trace.address // (line * 4)) * (line * 4)
        pinned = replace(
            workload, trace=type(trace)(trace.sm, addresses, trace.flags)
        )
        sim = ShardedGPUSimulator(config, pinned, shards=4, workers=1)
        result = sim.run()
        idle = [p for p in sim.bank_payloads if p["idle"]]
        assert len(idle) == 3
        assert result.l2_leakage_power_w > 0


class TestBankStatsIdleBanks:
    def test_idle_bank_rates_are_none(self):
        stats = BankStats()
        assert stats.idle
        assert stats.conflict_rate is None
        assert stats.mean_wait is None

    def test_active_bank_rates_are_floats(self):
        stats = BankStats(requests=8, conflicts=2, total_wait=4e-9)
        assert not stats.idle
        assert stats.conflict_rate == pytest.approx(0.25)
        assert stats.mean_wait == pytest.approx(5e-10)

    def test_summarize_excludes_idle_banks_from_averages(self):
        banks = [
            BankStats(requests=10, conflicts=5, total_wait=10e-9),
            BankStats(),  # idle: must not dilute the averages
            BankStats(requests=10, conflicts=5, total_wait=10e-9),
            BankStats(),
        ]
        summary = summarize_banks(banks)
        assert summary["banks"] == 4
        assert summary["active_banks"] == 2
        assert summary["idle_banks"] == 2
        assert summary["requests"] == 20
        assert summary["conflict_rate"] == pytest.approx(0.5)
        assert summary["mean_wait_s"] == pytest.approx(1e-9)

    def test_summarize_all_idle(self):
        summary = summarize_banks([BankStats(), BankStats()])
        assert summary["active_banks"] == 0
        assert summary["conflict_rate"] is None
        assert summary["mean_wait_s"] is None

    def test_banked_cache_tracks_per_bank_counters(self):
        cache = BankedCache(4, 128)
        for i in range(8):
            cache.schedule(i * 128, now=0.0, service_time=1e-9)
        per = cache.per_bank
        assert len(per) == 4
        assert sum(b.requests for b in per) == cache.stats.requests == 8
        assert sum(b.conflicts for b in per) == cache.stats.conflicts


class TestShardedOracle:
    def test_lockstep_oracle_rejects_a_sharded_dut(self):
        # one shard's DUT is the soa DUT; the remap is pinned by
        # SUBSTREAM_DIGESTS instead
        with pytest.raises(OracleError, match="object or soa"):
            make_pair(pressure_config(), engine="sharded")

    def test_diff_command_rejects_the_sharded_engine(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["diff", "bfs", "--engine", "sharded"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'sharded'" in capsys.readouterr().err
