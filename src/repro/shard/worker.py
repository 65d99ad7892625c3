"""Per-shard worker: one picklable job in, one JSON-safe payload out.

The sharded engine's pool runs :func:`run_shard`: every worker receives
the run's :class:`~repro.shard.simulator.ShardedGPUSimulator` once, at
pool start, and each job names only a shard, whose sub-stream the worker
cuts itself.

This mirrors the experiment battery's JobSpec/compute contract
(:mod:`repro.experiments.parallel`): a :class:`BankJob` is plain frozen
data, :func:`run_bank_job` is a module-level function any process can
execute, and the payload is the replay's raw counter record — *not* a
rolled-up :class:`~repro.gpu.metrics.SimulationResult` — because the merge
(:mod:`repro.shard.merge`) sums the records of every shard and rolls the
sum up once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, List

from repro.cache.banked import BankedCache
from repro.config import GPUConfig
from repro.gpu.dram import DRAMModel
from repro.gpu.simulator import EMPTY_SUMS, TIME_DILATION, replay_counters
from repro.shard.plan import shard_substream
from repro.workloads.trace import Workload

if TYPE_CHECKING:
    from repro.shard.simulator import ShardedGPUSimulator


@dataclass(frozen=True)
class BankJob:
    """One shard's replay: a scaled config plus its sub-stream workload."""

    shard: int
    shards: int
    #: per-shard config from :func:`repro.shard.plan.shard_config`
    config: GPUConfig
    #: sub-stream workload from :func:`repro.shard.plan.shard_substream`
    workload: Workload
    time_dilation: float = TIME_DILATION
    start_time_s: float = 0.0


def _bank_rows(banks: BankedCache) -> List[list]:
    """Per-bank ``[requests, conflicts, total_wait]`` rows (JSON-safe)."""
    return [[b.requests, b.conflicts, b.total_wait] for b in banks.per_bank]


def run_bank_job(job: BankJob) -> Dict[str, Any]:
    """Replay one shard's sub-stream and return its raw-counter payload.

    The payload is the simulator's
    :func:`~repro.gpu.simulator.replay_counters` record plus the shard's
    identity and per-bank stats.  The engine resolves per shard exactly
    like a standalone run (``engine=None``), to the default SoA engine.
    """
    from repro.engine import make_simulator

    sim = make_simulator(
        job.config,
        job.workload,
        engine=None,
        time_dilation=job.time_dilation,
        start_time_s=job.start_time_s,
    )
    sim.run()
    return {
        "shard": job.shard,
        "shards": job.shards,
        "idle": False,
        **sim.counters,
        "bank_stats": _bank_rows(sim.banks),
    }


def run_shard(sim: ShardedGPUSimulator, shard: int) -> Dict[str, Any]:
    """Cut one shard's sub-stream from ``sim``'s trace and replay it.

    An idle shard (one that owns no accesses) returns its
    :func:`idle_payload`.  Only one sub-stream is alive per call, so a
    serial loop over the shards holds at most one at a time.
    """
    plan = sim.plan
    sub = shard_substream(
        sim.workload.trace, plan.line_size, plan.shards, shard
    )
    if sub is None:
        return idle_payload(shard, plan.shards, plan.sub_config)
    return run_bank_job(BankJob(
        shard=shard,
        shards=plan.shards,
        config=plan.sub_config,
        workload=replace(sim.workload, trace=sub),
        time_dilation=sim.time_dilation,
        start_time_s=sim.start_time_s,
    ))


def idle_payload(shard: int, shards: int, config: GPUConfig) -> Dict[str, Any]:
    """The payload of a shard that owns no accesses.

    The counters of a freshly built (never accessed) L2 and DRAM: every
    event count is zero, while leakage power and area — *static* figures
    of the shard's L2 slice, which still leaks and still occupies die
    area — keep their real values.
    """
    from repro.core.factory import build_l2

    # only the DRAM's (zero) counters are read, so its geometry is moot
    counters = replay_counters(
        build_l2(config.l2, tech=config.tech), DRAMModel(), (), EMPTY_SUMS,
        0, 0.0,
    )
    return {
        "shard": shard,
        "shards": shards,
        "idle": True,
        **counters,
        "bank_stats": _bank_rows(
            BankedCache(config.l2.num_banks, config.l2.line_size)
        ),
    }
