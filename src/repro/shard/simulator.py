"""The sharded replay engine's front end: partition, fan out, merge.

``ShardedGPUSimulator`` quacks like the other engines' simulators (same
constructor shape, a ``run()`` returning a
:class:`~repro.gpu.metrics.SimulationResult`) but owns no caches itself:
it plans the shard decomposition, partitions the trace, runs one
:class:`~repro.shard.worker.BankJob` per non-idle shard on the experiment
battery's process fan-out, and folds the payloads back deterministically.
See docs/sharding.md for the topology and the "when sharded beats soa"
guidance (short answer: >= 2 physical cores and >= ~1M accesses).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.benchmarks import usable_cpus
from repro.config import GPUConfig
from repro.errors import ConfigurationError
from repro.gpu.metrics import SimulationResult
from repro.gpu.simulator import TIME_DILATION
from repro.shard.merge import merge_bank_payloads
from repro.shard.plan import partition_trace, plan_shards
from repro.shard.worker import BankJob, idle_payload, run_bank_job
from repro.workloads.trace import Workload


class ShardedGPUSimulator:
    """One (workload, configuration) simulation, executed shard-parallel."""

    def __init__(
        self,
        config: GPUConfig,
        workload: Workload,
        shards: int = 4,
        workers: Optional[int] = None,
        time_dilation: float = TIME_DILATION,
        start_time_s: float = 0.0,
    ) -> None:
        self.config = config
        self.workload = workload
        self.plan = plan_shards(config, shards)
        self.shards = shards
        if workers is None:
            workers = min(shards, usable_cpus())
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        #: process-pool width; results are merge-order deterministic for
        #: any value, so this is purely a throughput knob
        self.workers = workers
        self.time_dilation = time_dilation
        self.start_time_s = start_time_s
        #: per-shard payloads of the last run(), ascending shard order
        self.bank_payloads: list = []

    def run(self) -> SimulationResult:
        """Partition, replay every shard, and merge deterministically."""
        from repro.experiments.parallel import fan_out

        plan = self.plan
        subs = partition_trace(
            self.workload.trace, plan.line_size, plan.shards
        )
        jobs = []
        for shard, sub in enumerate(subs):
            if sub is None:
                continue
            jobs.append(BankJob(
                shard=shard,
                shards=plan.shards,
                config=plan.sub_config,
                workload=replace(self.workload, trace=sub),
                time_dilation=self.time_dilation,
                start_time_s=self.start_time_s,
            ))
        payloads = fan_out(run_bank_job, jobs, self.workers)
        for shard, sub in enumerate(subs):
            if sub is None:
                payloads.append(
                    idle_payload(shard, plan.shards, plan.sub_config)
                )
        self.bank_payloads = sorted(payloads, key=lambda p: p["shard"])
        return merge_bank_payloads(
            self.config, self.workload, self.bank_payloads
        )
