"""The service's sharded worker pool and its picklable compute functions.

The pool generalizes the one-shot batch fan-out of
:func:`repro.experiments.parallel.fan_out` to a *long-running* service:
instead of spinning a pool up per battery, :class:`ShardedWorkerPool`
keeps ``shards`` single-worker executors alive and routes each job to the
executor selected by its content digest (``int(digest[:8], 16) % shards``).
Digest routing gives the same two properties the batch path gets from
submission-order collection:

* **Determinism** — a job's worker is a pure function of its digest, not
  of arrival order or load.
* **Per-digest serialization** — duplicates of one digest can never run
  on two workers at once even if coalescing is bypassed.

Each shard is a single-worker thread: no pickling, shared memory, and
still enough concurrency for request coalescing to be observable because
the interpreter's preemptive thread switching keeps the event loop
responsive while a worker thread replays.

The compute functions mirror the ``JobSpec``/compute contract of
:mod:`repro.experiments.parallel`: module-level, picklable, plain-dict
in / JSON-safe dict out, so the same function runs inline, on a thread,
or in a battery worker process — and the results are byte-identical
either way.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Mapping, Tuple

from repro.errors import ServiceError


def compute_simulate(request: Mapping[str, Any]) -> Dict[str, Any]:
    """Run one normalized ``simulate`` request to its JSON-safe payload.

    The payload is exactly
    :func:`repro.io.simulation_result_to_dict` of
    ``repro.simulate(config, workload, engine=...)`` for the workload
    built as ``build_workload(benchmark, num_accesses=trace_length,
    num_sms=config.num_sms, seed=seed)`` — the byte-identity contract the
    service-smoke CI job asserts (docs/service.md).
    """
    from repro.config import all_configs
    from repro.engine import make_simulator
    from repro.io import simulation_result_to_dict
    from repro.workloads.suite import build_workload

    config = all_configs()[request["config"]]
    workload = build_workload(
        request["benchmark"],
        num_accesses=request["trace_length"],
        num_sms=config.num_sms,
        seed=request["seed"],
    )
    kwargs: Dict[str, Any] = {}
    if request["engine"] == "sharded":
        kwargs["shards"] = request["shards"]
    simulator = make_simulator(
        config, workload, engine=request["engine"], **kwargs
    )
    return simulation_result_to_dict(simulator.run())


def compute_experiment_job(spec_fields: Tuple) -> Dict[str, Any]:
    """Run one experiment :class:`~repro.experiments.parallel.JobSpec`.

    ``spec_fields`` is the spec as a plain tuple (picklable across any
    executor); execution goes through the same
    :func:`repro.experiments.parallel.execute_job` the battery uses, so a
    payload computed by the service merges byte-identically into a
    battery result and vice versa.
    """
    from repro.experiments.parallel import JobSpec, execute_job

    return execute_job(JobSpec(*spec_fields))


class ShardedWorkerPool:
    """``shards`` long-lived single-worker threads, routed by digest."""

    def __init__(self, shards: int = 2) -> None:
        """Create the pool: ``shards`` single-worker thread executors."""
        if shards < 1:
            raise ServiceError(f"pool shards must be >= 1, got {shards}")
        self.shards = shards
        self._executors: List[ThreadPoolExecutor] = [
            ThreadPoolExecutor(max_workers=1) for _ in range(shards)
        ]

    def shard_for(self, digest: str) -> int:
        """The shard index a digest routes to (pure function of digest)."""
        return int(digest[:8], 16) % self.shards

    async def run(self, digest: str, fn, arg) -> Any:
        """Execute ``fn(arg)`` on the digest's shard; awaitable result."""
        loop = asyncio.get_running_loop()
        executor = self._executors[self.shard_for(digest)]
        return await loop.run_in_executor(executor, fn, arg)

    def shutdown(self, wait: bool = True) -> None:
        """Shut every shard executor down (idempotent)."""
        for executor in self._executors:
            executor.shutdown(wait=wait)

    def describe(self) -> Dict[str, Any]:
        """JSON-safe pool topology for stats responses."""
        return {"shards": self.shards}
