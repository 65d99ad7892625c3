"""Cross-engine parity gates: ``soa`` must be byte-identical to ``object``.

The SoA engine (``repro.engine``, see docs/engine.md) re-implements the
replay hot path over flat vectors; its entire claim to correctness is that
no observable output changes.  These tests enforce that claim three ways:

* **Pinned scenarios** — every scenario of the tier-1 digest table
  (``tests/pinned.py``) is run under both engines; both must produce the
  pinned SHA-256 digest, and the full canonical
  :class:`~repro.gpu.metrics.SimulationResult` dicts and the component
  counter surfaces must match exactly.
* **Randomized pressure profiles** — seeded workloads on the tiny
  ``oracle-small`` two-part config (capacity pressure ⇒ migrations,
  buffer traffic and refresh sweeps within tens of accesses) are replayed
  through both engines and through the oracle's lockstep runner with the
  SoA L2 as the DUT.
* **Refresh-sweep decisions** — both engines' refresh engines must emit
  identical action lists (same lines refreshed/expired/dropped, in the
  same order) on a shared access-and-maintenance schedule.

Engine selection itself (fallbacks, explicit-request errors) is covered at
the bottom; speed is measured by the repo benchmark (``bench/``), not
here — tier-1 only proves equivalence.
"""

import random

import pytest

from repro.benchmarks import result_digest
from repro.config import all_configs
from repro.engine import ENGINES, make_simulator, resolve_engine
from repro.engine.soa_l2 import SoaTwoPartL2
from repro.engine.soa_sim import SoaGPUSimulator
from repro.errors import ConfigurationError
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
from tests.pinned import ALL_SCENARIOS, RESULT_DIGESTS


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
    for index, cache in enumerate(simulator.const_caches):
        surface[f"const.{index}"] = cache.array.stats
    for index, cache in enumerate(simulator.texture_caches):
        surface[f"texture.{index}"] = cache.array.stats
    l2 = simulator.l2
    if hasattr(l2, "lr_array"):
        surface["l2"] = dut_counters(l2)
    else:
        surface["l2.array"] = l2.array.stats
        surface["l2.data_writes"] = l2.data_writes
        surface["l2.energy"] = l2.energy.as_dict()
    return surface


@pytest.mark.parametrize(
    "scenario", ALL_SCENARIOS, ids=lambda s: s.key.replace("/", "-")
)
def test_pinned_scenarios_are_engine_invariant(scenario):
    """Both engines produce the pinned digest on every pinned scenario,
    with byte-identical results and counter surfaces."""
    config = all_configs()[scenario.config]
    obj_result, obj_sim = _run(
        scenario.workload, config, scenario.trace_length, scenario.seed,
        "object",
    )
    soa_result, soa_sim = _run(
        scenario.workload, config, scenario.trace_length, scenario.seed,
        "soa",
    )
    assert isinstance(soa_sim, SoaGPUSimulator)
    assert simulation_result_to_dict(obj_result) == \
        simulation_result_to_dict(soa_result)
    pinned = RESULT_DIGESTS[scenario.key]["exact"]
    assert result_digest(obj_result) == pinned
    assert result_digest(soa_result) == pinned
    assert _counter_surface(obj_sim) == _counter_surface(soa_sim)


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


@pytest.mark.parametrize("profile", ["bfs", "stencil"])
def test_soa_l2_survives_the_lockstep_oracle(profile):
    """The SoA two-part L2 as DUT against the naive reference: zero
    divergence on per-access outcomes, counters and refresh decisions."""
    report = run_diff(
        profile, pressure_config(), seed=3, accesses=1500, engine="soa"
    )
    assert report["engine"] == "soa"
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
    assert resolve_engine(config, tracer=_Tracer()) == "object"
    assert resolve_engine(config, invariant_checker=object()) == "object"
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


@pytest.mark.parametrize("config_name", ["C1", "baseline"])
def test_soa_builds_no_per_line_objects(config_name):
    """``soa`` keeps every cache's state flat, through construction and run.

    Its loop holds the L1 and read-only caches in per-SM lists and reads
    the L2 vectors directly, so no object array may build its ``CacheSet``
    list and no SoA array its set or block views.  The trace is long enough
    for C1's LR refresh sweeps to refresh lines.
    """
    config = all_configs()[config_name]
    workload = build_workload(
        "bfs", num_accesses=20_000, num_sms=config.num_sms, seed=0
    )
    sim = make_simulator(config, workload, engine="soa")
    sim.run()
    object_arrays = [
        cache.array
        for caches in (sim.l1s, sim.const_caches, sim.texture_caches)
        for cache in caches
    ]
    assert not [a.name for a in object_arrays if "sets" in vars(a)]
    l2 = sim.l2
    soa_arrays = (
        [l2.lr_array, l2.hr_array] if isinstance(l2, SoaTwoPartL2) else [l2.array]
    )
    if config_name == "C1":
        assert l2.refresh_engine.stats.lr_refreshes > 0
    for array in soa_arrays:
        assert "sets" not in vars(array) and "block_views" not in vars(array)
