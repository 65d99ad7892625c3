"""Cross-engine parity gates: ``soa`` must be byte-identical to ``object``.

The SoA engine (``repro.engine``, see docs/engine.md) re-implements the
replay hot path over flat vectors; its entire claim to correctness is that
no observable output changes.  These tests enforce that claim four ways:

* **Pinned scenarios** — every scenario of the tier-1 digest table
  (``tests/pinned.py``), and a branch run that reaches the fused loop's
  parallel-search code, is run under both
  engines; both must produce the pinned SHA-256 digest, and the full
  canonical :class:`~repro.gpu.metrics.SimulationResult` dicts and the
  component counter surfaces must match exactly.
* **Randomized pressure profiles** — seeded workloads on the tiny
  ``oracle-small`` two-part config (capacity pressure ⇒ migrations and
  buffer pushes within tens of accesses) are replayed through both
  engines and through the oracle's lockstep runner with the SoA L2 as
  the DUT.
* **Refresh-sweep decisions** — both engines' refresh engines must emit
  identical action lists (same lines refreshed/expired/dropped, in the
  same order) on a shared access-and-maintenance schedule.
* **Cold branches** — the object and SoA two-part L2s run in lockstep
  through a schedule that overflows one-line swap buffers, refreshes and
  loses LR lines and drops clean and dirty HR lines, and the test
  asserts each of those branches was taken; the uniform L2s run in
  lockstep too.

Engine selection itself (fallbacks, explicit-request errors) is covered at
the bottom; speed is measured by the repo benchmark (``bench/``), not
here — tier-1 only proves equivalence.
"""

import random
from dataclasses import replace

import pytest

from repro.benchmarks import result_digest
from repro.config import all_configs
from repro.engine import ENGINES, make_simulator, resolve_engine
from repro.engine.soa_l2 import SoaTwoPartL2
from repro.engine.soa_sim import SoaGPUSimulator
from repro.errors import ConfigurationError, SimulationError
from repro.gpu.simulator import GPUSimulator
from repro.io import simulation_result_to_dict
from repro.oracle import (
    dut_counters,
    l2_kwargs_from_config,
    make_pair,
    pressure_config,
    run_diff,
)
from repro.workloads import build_workload
from tests.pinned import ALL_SCENARIOS, BRANCH_DIGESTS, RESULT_DIGESTS


def _run(scenario_workload, config, trace_length, seed, engine):
    """One fresh simulation; returns (result, simulator)."""
    workload = build_workload(
        scenario_workload,
        num_accesses=trace_length,
        num_sms=config.num_sms,
        seed=seed,
    )
    simulator = make_simulator(config, workload, engine=engine)
    return simulator.run(), simulator


def _counter_surface(simulator):
    """Every component counter the experiments or metrics layer can read."""
    surface = {
        "banks": simulator.banks.stats,
        "dram": simulator.dram.stats,
    }
    for index, l1 in enumerate(simulator.l1s):
        surface[f"l1.{index}.array"] = l1.array.stats
        surface[f"l1.{index}.gpu"] = l1.gpu_stats
        surface[f"l1.{index}.mshr"] = l1.mshr.stats
    l2 = simulator.l2
    if hasattr(l2, "lr_array"):
        surface["l2"] = dut_counters(l2)
    else:
        surface["l2.array"] = l2.array.stats
        surface["l2.data_writes"] = l2.data_writes
        surface["l2.energy"] = l2.energy.as_dict()
    return surface


def _assert_engines_agree(build, pinned):
    """Run ``build()``'s fresh (config, workload) on both engines: both
    give the ``pinned`` digest, one result dict and one counter surface."""
    runs = []
    for engine in ("object", "soa"):
        config, workload = build()
        simulator = make_simulator(config, workload, engine=engine)
        runs.append((simulator.run(), simulator))
    (obj_result, obj_sim), (soa_result, soa_sim) = runs
    assert isinstance(soa_sim, SoaGPUSimulator)
    assert simulation_result_to_dict(obj_result) == \
        simulation_result_to_dict(soa_result)
    assert result_digest(obj_result) == pinned
    assert result_digest(soa_result) == pinned
    assert _counter_surface(obj_sim) == _counter_surface(soa_sim)


@pytest.mark.parametrize(
    "scenario", ALL_SCENARIOS, ids=lambda s: s.key.replace("/", "-")
)
def test_pinned_scenarios_are_engine_invariant(scenario):
    """Both engines produce the pinned digest on every pinned scenario,
    with byte-identical results and counter surfaces."""
    def build():
        config = all_configs()[scenario.config]
        return config, build_workload(
            scenario.workload, num_accesses=scenario.trace_length,
            num_sms=config.num_sms, seed=scenario.seed,
        )

    _assert_engines_agree(build, RESULT_DIGESTS[scenario.key]["exact"])


def _parallel_search_bfs():
    config = all_configs()["C1"]
    config = replace(config, l2=replace(config.l2, sequential_search=False))
    workload = build_workload(
        "bfs", num_accesses=8000, num_sms=config.num_sms, seed=0
    )
    return config, workload


BRANCH_RUNS = {
    "bfs/C1-parallel/8000/s0": _parallel_search_bfs,
}


@pytest.mark.parametrize("key", sorted(BRANCH_RUNS))
def test_branch_runs_are_engine_invariant(key):
    """The fused loop's parallel-search branch, which no pinned scenario
    takes, matches the object loop byte for byte."""
    _assert_engines_agree(BRANCH_RUNS[key], BRANCH_DIGESTS[key])


@pytest.mark.parametrize("profile", ["bfs", "backprop", "stencil"])
@pytest.mark.parametrize("seed", [0, 1])
def test_pressure_profiles_are_engine_invariant(profile, seed):
    """Randomized workloads on the tiny two-part config: heavy migration
    and refresh traffic, still byte-identical across engines."""
    config = pressure_config()
    obj_result, obj_sim = _run(profile, config, 4000, seed, "object")
    soa_result, soa_sim = _run(profile, config, 4000, seed, "soa")
    assert simulation_result_to_dict(obj_result) == \
        simulation_result_to_dict(soa_result)
    assert _counter_surface(obj_sim) == _counter_surface(soa_sim)


@pytest.mark.parametrize("profile, accesses, dilation, branches", [
    # a compressed clock: swap-buffer drains lag, both buffers overflow
    ("lbm", 4000, 0.1,
     ["buffer.hr_to_lr.overflows", "buffer.lr_to_hr.overflows",
      "l2.returns_to_hr"]),
    # a stretched clock: due sweeps refresh LR lines and lose some
    ("bfs", 2000, 1e4,
     ["refresh.lr_refreshes", "refresh.lr_expiries", "l2.returns_to_hr"]),
], ids=["overflow", "refresh"])
def test_fused_loop_cold_migration_branches(profile, accesses, dilation,
                                             branches):
    """One-line swap buffers on the tiny two-part config: the fused loop's
    migrations overflow both buffers, return LR victims to HR and meet
    LR refreshes and losses, byte-identical to the object loop."""
    config = pressure_config()
    config = replace(config, l2=replace(config.l2, migration_buffer_lines=1))
    runs = []
    for engine in ("object", "soa"):
        workload = build_workload(
            profile, num_accesses=accesses, num_sms=config.num_sms, seed=0
        )
        simulator = make_simulator(
            config, workload, engine=engine, time_dilation=dilation
        )
        runs.append((simulator.run(), simulator))
    (obj_result, obj_sim), (soa_result, soa_sim) = runs
    assert isinstance(soa_sim, SoaGPUSimulator)
    assert simulation_result_to_dict(obj_result) == \
        simulation_result_to_dict(soa_result)
    surface = _counter_surface(soa_sim)
    assert _counter_surface(obj_sim) == surface
    assert not [name for name in branches if surface["l2"][name] == 0]


def test_fused_loop_keeps_its_state_in_plain_locals():
    """No nested function closes over the loop's state: a closure would
    turn these names into cells, and a call into one copies them all."""
    cells = SoaGPUSimulator.run.__code__.co_cellvars
    assert not {"now", "sm", "demand_j", "migration_j"} & set(cells)


def test_fused_loop_hot_locals_need_no_extended_arg():
    """Locals numbered 256 or above cost an EXTENDED_ARG per access, so
    the loop's function keeps fewer than 256 of them."""
    assert SoaGPUSimulator.run.__code__.co_nlocals < 256


def test_fused_loop_rejects_a_due_queue_that_runs_ahead():
    """The loop appends LR stamps from its own clock, so a queued stamp
    later than the replay's start would break the queue's order."""
    config = all_configs()["C1"]
    workload = build_workload(
        "bfs", num_accesses=200, num_sms=config.num_sms, seed=0
    )
    simulator = make_simulator(config, workload, engine="soa")
    simulator.l2._queue_due(1.0, 0)
    with pytest.raises(SimulationError, match="1.0 s"):
        simulator.run()


@pytest.mark.parametrize("profile", ["bfs", "stencil"])
def test_soa_l2_survives_the_lockstep_oracle(profile):
    """The SoA two-part L2 as DUT against the naive reference: zero
    divergence on per-access outcomes, counters and refresh decisions."""
    report = run_diff(
        profile, pressure_config(), seed=3, accesses=1500, engine="soa"
    )
    assert report["engine"] == "soa"
    assert report["divergence"] is None


def test_soa_migration_energy_keeps_the_object_sum():
    """A migrating write reports ``energy + (HR read + LR write)``, summed
    as the object model sums it; on lbm/C1 a reassociated sum diverged in
    the last bit at the first migration."""
    report = run_diff(
        "lbm", all_configs()["C1"], seed=7, accesses=1500, engine="soa"
    )
    assert report["divergence"] is None


def test_refresh_sweep_decisions_match():
    """Both refresh engines act on the same lines in the same order."""
    kwargs = l2_kwargs_from_config(pressure_config().l2)
    from repro.core.twopart import TwoPartSTTL2

    obj = TwoPartSTTL2(**kwargs)
    soa = SoaTwoPartL2(**kwargs)
    rng = random.Random(11)
    now = 0.0
    sweeps = 0
    for _ in range(2500):
        now += 2e-6
        address = rng.randrange(0, 1 << 16) & ~(kwargs["line_size"] - 1)
        is_write = rng.random() < 0.6
        obj_res = obj.access(address, is_write, now)
        soa_res = soa.access(address, is_write, now)
        assert (obj_res.hit, obj_res.part, obj_res.latency_s,
                obj_res.energy_j, obj_res.dram_writebacks) == \
            (soa_res.hit, soa_res.part, soa_res.latency_s,
             soa_res.energy_j, soa_res.dram_writebacks)
        obj_actions = obj.refresh_engine.last_actions
        soa_actions = soa.refresh_engine.last_actions
        if obj_actions is not None or soa_actions is not None:
            assert obj_actions is not None and soa_actions is not None
            assert obj_actions.as_dict() == soa_actions.as_dict()
            sweeps += 1
    assert sweeps > 0, "schedule never triggered a refresh sweep"
    assert dut_counters(obj) == dut_counters(soa)


def _cold_branch_schedule(rng, accesses):
    """Seeded (address, is_write, now) triples that hit every cold branch.

    128 distinct lines, 70% writes.  Same-instant requests (30%) overflow
    one-line swap buffers; 36 us gaps leave recently written LR lines in
    their refresh window; 50 us gaps let LR lines outlive their retention
    between sweeps; 45 ms gaps age HR lines past their refresh age.
    """
    now = 0.0
    for _ in range(accesses):
        draw = rng.random()
        if draw < 0.3:
            step = 0.0
        elif draw < 0.305:
            step = 36e-6
        elif draw < 0.31:
            step = 50e-6
        elif draw < 0.3108:
            step = 45e-3
        else:
            step = 0.3e-6
        now += step
        yield rng.randrange(0, 1 << 15), rng.random() < 0.7, now


def _actions(l2):
    actions = l2.refresh_engine.last_actions
    if actions is None:
        return None
    return (actions.lr_refresh, actions.lr_lost,
            actions.hr_drop_clean, actions.hr_drop_dirty)


@pytest.mark.parametrize("variant", [
    {},
    {"write_threshold": 2},
    {"lr_technology": "sram"},
    {"sequential_search": False},
], ids=["paper", "threshold2", "sram-lr", "parallel"])
def test_cold_branches_match_in_lockstep(variant):
    """Migrations, swap-buffer overflows and every refresh-sweep outcome,
    access by access: one-line buffers under a bursty, gappy schedule."""
    from repro.core.twopart import TwoPartSTTL2

    kwargs = l2_kwargs_from_config(pressure_config().l2)
    kwargs.update(buffer_lines=1, **variant)
    obj = TwoPartSTTL2(**kwargs)
    soa = SoaTwoPartL2(**kwargs)
    for address, is_write, now in _cold_branch_schedule(
        random.Random(5), 6000
    ):
        obj_res = obj.access(address, is_write, now)
        soa_res = soa.access(address, is_write, now)
        assert (obj_res.hit, obj_res.part, obj_res.latency_s,
                obj_res.energy_j, obj_res.dram_writebacks, obj_res.probes) == \
            (soa_res.hit, soa_res.part, soa_res.latency_s,
             soa_res.energy_j, soa_res.dram_writebacks, soa_res.probes)
        assert _actions(obj) == _actions(soa)
    counters = dut_counters(obj)
    assert counters == dut_counters(soa)
    assert obj.state_snapshot() == soa.state_snapshot()
    assert obj.energy.as_dict() == soa.energy.as_dict()
    branches = [
        "l2.migrations_to_lr", "l2.returns_to_hr",
        "buffer.hr_to_lr.overflows", "buffer.lr_to_hr.overflows",
        "refresh.hr_expirations_clean", "refresh.hr_expirations_dirty",
    ]
    if kwargs.get("lr_technology", "stt") == "stt":
        branches += ["refresh.lr_refreshes", "refresh.lr_expiries"]
    assert not [name for name in branches if counters[name] == 0]


@pytest.mark.parametrize("technology", ["sram", "stt"])
def test_uniform_l2_matches_in_lockstep(technology):
    """The object and SoA uniform L2s, access by access, on a 16-set
    array under mixed reads and writes that evict dirty lines."""
    from repro.core.uniform import UniformL2
    from repro.engine.soa_l2 import SoaUniformL2

    kwargs = dict(
        capacity_bytes=8 * 1024, associativity=2, line_size=256,
        technology=technology,
    )
    obj = UniformL2(**kwargs)
    soa = SoaUniformL2(**kwargs)
    rng = random.Random(7)
    now = 0.0
    for _ in range(4000):
        now += 1e-9
        address = rng.randrange(0, 1 << 15)
        is_write = rng.random() < 0.4
        assert obj.access(address, is_write, now) == \
            soa.access(address, is_write, now)
    assert obj.stats.evictions_dirty > 0
    assert obj.stats == soa.stats
    assert obj.data_writes == soa.data_writes
    assert obj.energy.as_dict() == soa.energy.as_dict()


def test_lockstep_pair_accepts_engine_and_rejects_soa_mutants():
    config = pressure_config()
    dut, _ref = make_pair(config, engine="soa")
    assert isinstance(dut, SoaTwoPartL2)
    from repro.errors import OracleError

    with pytest.raises(OracleError):
        make_pair(config, mutant="probe-order", engine="soa")
    with pytest.raises(OracleError):
        make_pair(config, engine="vectorized")


def test_engine_resolution_fallbacks_and_errors():
    config = all_configs()["C1"]

    class _Tracer:
        enabled = True

    assert resolve_engine(config) == "soa"
    assert resolve_engine(config, engine="object") == "object"
    assert resolve_engine(config, engine="object", tracer=_Tracer()) == "object"
    # no engine named: the default engine's blockers raise, never fall back
    with pytest.raises(ConfigurationError, match="soa engine does not support: tracing"):
        resolve_engine(config, tracer=_Tracer())
    with pytest.raises(ConfigurationError, match="invariant checker"):
        resolve_engine(config, invariant_checker=object())
    with pytest.raises(ConfigurationError):
        resolve_engine(config, engine="soa", tracer=_Tracer())
    with pytest.raises(ConfigurationError):
        resolve_engine(config, engine="no-such-engine")
    assert set(ENGINES) == {"object", "soa", "sharded"}
    with pytest.raises(ConfigurationError):
        resolve_engine(config, engine="sharded", tracer=_Tracer())


def test_make_simulator_returns_the_resolved_engine():
    config = all_configs()["C1"]
    workload = build_workload(
        "bfs", num_accesses=200, num_sms=config.num_sms, seed=0
    )
    assert isinstance(
        make_simulator(config, workload, engine="soa"), SoaGPUSimulator
    )
    explicit = make_simulator(config, workload, engine="object")
    assert type(explicit) is GPUSimulator


def test_make_simulator_never_falls_back_to_the_object_engine():
    from repro.tracing import TraceCollector

    config = all_configs()["C1"]
    workload = build_workload(
        "bfs", num_accesses=200, num_sms=config.num_sms, seed=0
    )
    with pytest.raises(ConfigurationError, match="engine='object'"):
        make_simulator(config, workload, tracer=TraceCollector())
    traced = make_simulator(
        config, workload, engine="object", tracer=TraceCollector()
    )
    assert type(traced) is GPUSimulator


@pytest.mark.parametrize("config_name", ["C1", "baseline"])
def test_soa_builds_no_per_line_objects(config_name):
    """``soa`` keeps every cache's state flat, through construction and run.

    Its loop holds the L1s in per-SM lists and reads the L2 vectors
    directly, so no object array may build its ``CacheSet``
    list and no SoA array its set or block views.  The trace is long enough
    for C1's LR refresh sweeps to refresh lines.
    """
    config = all_configs()[config_name]
    workload = build_workload(
        "bfs", num_accesses=20_000, num_sms=config.num_sms, seed=0
    )
    sim = make_simulator(config, workload, engine="soa")
    sim.run()
    object_arrays = [l1.array for l1 in sim.l1s]
    assert not [a.name for a in object_arrays if "sets" in vars(a)]
    l2 = sim.l2
    soa_arrays = (
        [l2.lr_array, l2.hr_array] if isinstance(l2, SoaTwoPartL2) else [l2.array]
    )
    if config_name == "C1":
        assert l2.refresh_engine.stats.lr_refreshes > 0
    for array in soa_arrays:
        assert "sets" not in vars(array) and "block_views" not in vars(array)
