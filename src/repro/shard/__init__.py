"""Sharded replay engine: per-bank sub-streams on a process pool.

The paper's L2 is "a banked cache array shared by all SMs"; this package
models that decomposition literally (docs/sharding.md).  The
line-interleaved bank hash (the same ``cache.address.bank_index`` the
timing model uses) cuts a trace into per-shard sub-streams, each shard
owns an independent L2 slice — its own migration buffers, WWS monitor
and refresh engine — and the shards replay on a process pool whose
workers cut their own sub-streams.
A deterministic merge (fixed shard-order float folding, see
:mod:`repro.shard.merge`) folds the per-shard counters back into one
:class:`~repro.gpu.metrics.SimulationResult`.

``--engine sharded --shards 1`` is byte-identical to ``--engine soa`` on
every pinned scenario; ``--shards N`` is a documented modeling
approximation that buys near-linear wall-clock scaling on multi-core
hosts.
"""

from repro.shard.merge import merge_bank_payloads
from repro.shard.plan import (
    ShardPlan,
    partition_trace,
    plan_shards,
    shard_config,
    shard_l2_config,
    shard_substream,
)
from repro.shard.simulator import ShardedGPUSimulator
from repro.shard.worker import BankJob, idle_payload, run_bank_job, run_shard

__all__ = [
    "BankJob",
    "ShardPlan",
    "ShardedGPUSimulator",
    "idle_payload",
    "merge_bank_payloads",
    "partition_trace",
    "plan_shards",
    "run_bank_job",
    "run_shard",
    "shard_config",
    "shard_l2_config",
    "shard_substream",
]
