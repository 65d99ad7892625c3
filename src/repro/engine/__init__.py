"""Replay engine registry: the ``object``, ``soa`` and ``sharded`` backends.

The repository ships three interchangeable simulation engines (selected
with ``--engine`` on the CLI, see docs/engine.md):

``object``
    The reference model — one Python object per cache block/set, plain
    method dispatch everywhere.  Supports every feature: tracing, fault
    injection, invariant checkers and externally-built L2 instances.

``soa``
    The batched structure-of-arrays model — flat vectors for tags,
    valid/dirty bits, write counters and retention timestamps, plus a
    fused replay loop with zero per-access allocation in steady state.
    Byte-identical results to ``object`` on every supported
    configuration, roughly an order of magnitude faster.  Unsupported
    features raise (see :func:`resolve_engine`).

``sharded``
    The multi-process model (:mod:`repro.shard`, docs/sharding.md): the
    bank hash partitions the trace into per-shard sub-streams, each
    replayed by an independent per-shard simulator (SoA when supported)
    on a process pool, with a deterministic shard-order merge.
    ``--shards 1`` is byte-identical to ``soa``; it is **opt-in only** —
    ``engine=None`` never auto-selects it, because its ``--shards N``
    mode is a documented modeling approximation and its process-pool
    overhead only pays off on multi-core hosts at ~1M+ accesses.

:func:`make_simulator` is the one entry point callers need: it resolves
the requested engine against the feature set actually in use and returns
a ready-to-run simulator.
"""

from __future__ import annotations

import inspect
from typing import Optional

from repro.config import GPUConfig
from repro.errors import ConfigurationError
from repro.workloads.trace import Workload

#: Engine used when the caller does not ask for one explicitly.
DEFAULT_ENGINE = "soa"

#: Every selectable engine name, reference model first.
ENGINES = ("object", "soa", "sharded")


def _soa_blockers(
    config: GPUConfig,
    l2: Optional[object],
    tracer: Optional[object],
    invariant_checker: Optional[object],
) -> list:
    """Feature names in play that the ``soa`` engine does not implement."""
    blockers = []
    if l2 is not None:
        blockers.append("externally-built L2")
    if tracer is not None and getattr(tracer, "enabled", True):
        blockers.append("tracing")
    if invariant_checker is not None:
        blockers.append("invariant checker")
    return blockers


def resolve_engine(
    config: GPUConfig,
    engine: Optional[str] = None,
    l2: Optional[object] = None,
    tracer: Optional[object] = None,
    invariant_checker: Optional[object] = None,
) -> str:
    """Pick the engine to run: the caller's choice, validated, or the default.

    ``engine=None`` means :data:`DEFAULT_ENGINE` (``soa``; never
    ``sharded``, which is opt-in only).  A feature the resolved engine
    does not support raises :class:`~repro.errors.ConfigurationError`
    naming it, whether the engine was asked for or defaulted: nothing
    falls back silently to ``object``.  An unknown name always raises.
    """
    if engine is None:
        engine = DEFAULT_ENGINE
    elif engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    blockers = _soa_blockers(config, l2, tracer, invariant_checker)
    # sharded workers resolve engines themselves, but the sharded front
    # end shares the soa blocker list: every blocked feature needs a
    # single in-process L2 object, which a process-pool run cannot offer
    if engine in ("soa", "sharded") and blockers:
        raise ConfigurationError(
            f"the {engine} engine does not support: " + ", ".join(blockers)
            + "; use engine='object'"
        )
    return engine


def make_simulator(
    config: GPUConfig,
    workload: Workload,
    engine: Optional[str] = None,
    **kwargs,
):
    """Construct the simulator for ``engine`` (resolved per the run's features).

    Accepts the keyword arguments of
    :class:`repro.gpu.simulator.GPUSimulator`, plus ``shards``/``workers``
    with ``engine="sharded"`` only; any other keyword raises
    :class:`~repro.errors.ConfigurationError` on every engine.  The ones
    the ``soa`` engine cannot honour (a pre-built ``l2``, an enabled
    ``tracer``, an ``invariant_checker``) need ``engine="object"``; see
    :func:`resolve_engine`.
    """
    from repro.gpu.simulator import GPUSimulator

    accepted = set(inspect.signature(GPUSimulator).parameters)
    unknown = sorted(set(kwargs) - accepted - {"shards", "workers"})
    if unknown:
        raise ConfigurationError(
            "unknown simulator option(s): " + ", ".join(unknown)
        )
    resolved = resolve_engine(
        config,
        engine=engine,
        l2=kwargs.get("l2"),
        tracer=kwargs.get("tracer"),
        invariant_checker=kwargs.get("invariant_checker"),
    )
    if resolved != "sharded" and (
        "shards" in kwargs or "workers" in kwargs
    ):
        raise ConfigurationError(
            "shards/workers are sharded-engine options; pass "
            "engine='sharded' to use them"
        )
    if resolved == "sharded":
        from repro.shard import ShardedGPUSimulator

        shard_kwargs = {
            key: value for key, value in kwargs.items()
            if key in ("time_dilation", "start_time_s", "shards", "workers")
        }
        return ShardedGPUSimulator(config, workload, **shard_kwargs)
    if resolved == "soa":
        from repro.engine.soa_sim import SoaGPUSimulator

        soa_kwargs = {
            key: value for key, value in kwargs.items()
            if key in ("time_dilation", "start_time_s")
        }
        return SoaGPUSimulator(config, workload, **soa_kwargs)
    return GPUSimulator(config, workload, **kwargs)
