"""Deterministic merge: per-shard payloads -> one SimulationResult.

Every payload carries its shard's
:func:`~repro.gpu.simulator.replay_counters` record.  The merge sums the
records key by key into one record and hands it to the single roll-up,
:func:`repro.gpu.simulator.roll_up`.  Determinism and parity rest on two
rules (docs/performance.md, docs/sharding.md):

* integer counters commute — they are summed in any order;
* float accumulators are folded **in ascending shard order starting at
  0.0**, regardless of which worker finished first.  For a single shard
  the fold is ``0.0 + x``, which is bitwise ``x`` for the non-negative
  sums involved — that is the ``sharded --shards 1`` == ``soa``
  byte-identity.  The fold is an explicit loop: ``sum()`` on floats is
  compensated on Python >= 3.12 and would round differently.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Sequence

from repro.cache.banked import BankStats
from repro.config import GPUConfig
from repro.errors import SimulationError
from repro.gpu.metrics import SimulationResult
from repro.gpu.simulator import roll_up
from repro.units import log2_int
from repro.workloads.trace import Workload

#: Payload keys that describe the shard rather than count its replay.
_SHARD_KEYS = ("shard", "shards", "idle", "bank_stats")


def _fold(values: Sequence[Any], name: str = "") -> Any:
    """Sum one counter across shards, in the given (shard) order.

    Dicts fold key by key, ints add, floats left-fold from ``0.0``, and
    ``None`` (a counter group the L2 kind lacks) must be ``None`` on every
    shard.
    """
    if any(value is None for value in values):
        if not all(value is None for value in values):
            raise SimulationError(
                f"inconsistent shard payloads: some carry {name!r} counters "
                "and some do not"
            )
        return None
    first = values[0]
    if isinstance(first, dict):
        return {key: _fold([value[key] for value in values], key)
                for key in first}
    total = 0.0 if isinstance(first, float) else 0
    for value in values:
        total += value
    return total


def merge_bank_payloads(
    config: GPUConfig,
    workload: Workload,
    payloads: Sequence[Mapping[str, Any]],
) -> SimulationResult:
    """Fold per-shard payloads into the run's single result.

    ``config``/``workload`` are the *full* (unscaled) ones; ``payloads``
    may arrive in any completion order — they are sorted by shard index
    before any float is touched.
    """
    if not payloads:
        raise SimulationError("cannot merge zero shard payloads")
    ordered = sorted(payloads, key=lambda p: p["shard"])
    shards = ordered[0]["shards"]
    if [p["shard"] for p in ordered] != list(range(shards)):
        raise SimulationError(
            f"expected one payload per shard 0..{shards - 1}, got shards "
            f"{[p['shard'] for p in ordered]}"
        )
    n_mem_insts = len(workload.trace)
    if sum(p["accesses"] for p in ordered) != n_mem_insts:
        raise SimulationError(
            "shard payloads do not cover the trace: "
            f"{sum(p['accesses'] for p in ordered)} accesses across shards "
            f"vs {n_mem_insts} in the workload"
        )
    counters = _fold([
        {key: value for key, value in p.items() if key not in _SHARD_KEYS}
        for p in ordered
    ])
    return roll_up(
        config, workload, counters, _merged_bank_stats(config, ordered, shards)
    )


def _merged_bank_stats(
    config: GPUConfig,
    ordered: Sequence[Mapping[str, Any]],
    shards: int,
) -> tuple:
    """Reassemble global per-bank stats from per-shard local banks.

    Global bank ``b`` lives in shard ``b & (shards - 1)`` at local index
    ``b >> log2(shards)`` (the shard selector is the low bits of the bank
    field; see :class:`repro.shard.plan.ShardPlan`).
    """
    shard_bits = log2_int(shards)
    merged: List[BankStats] = []
    for bank in range(config.l2.num_banks):
        local = ordered[bank & (shards - 1)]["bank_stats"][bank >> shard_bits]
        merged.append(BankStats(
            requests=local[0], conflicts=local[1], total_wait=local[2],
        ))
    return tuple(merged)
