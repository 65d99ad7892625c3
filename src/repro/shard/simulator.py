"""The sharded replay engine's front end: plan, fan out, merge.

``ShardedGPUSimulator`` quacks like the other engines' simulators (same
constructor shape, a ``run()`` returning a
:class:`~repro.gpu.metrics.SimulationResult`) but owns no caches itself:
it plans the shard decomposition, runs
:func:`~repro.shard.worker.run_shard` for every shard on the experiment
battery's process fan-out, and folds the payloads back deterministically.
See docs/sharding.md for the topology and the "when sharded beats soa"
guidance (short answer: >= 2 physical cores and >= ~1M accesses).
"""

from __future__ import annotations

from typing import Optional

from repro.benchmarks import usable_cpus
from repro.config import GPUConfig
from repro.errors import ConfigurationError
from repro.gpu.metrics import SimulationResult
from repro.gpu.simulator import TIME_DILATION
from repro.shard.merge import merge_bank_payloads
from repro.shard.plan import plan_shards
from repro.shard.worker import run_shard
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
        """Replay every shard and merge deterministically.

        The pool's workers receive this simulator once, at pool start
        (inherited, not pickled, under ``fork``), and each cuts its own
        shard's sub-stream: the parent holds no sub-stream.  With one
        worker the shards run in turn in this process, each cut just
        before its replay.
        """
        from repro.experiments.parallel import fan_out

        self.bank_payloads = fan_out(
            run_shard, range(self.shards), self.workers, shared=self
        )
        return merge_bank_payloads(
            self.config, self.workload, self.bank_payloads
        )
