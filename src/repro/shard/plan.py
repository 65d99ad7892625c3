"""Shard planning: geometry validation, config scaling, trace partitioning.

A shard owns ``num_banks / shards`` of the L2's banks and the
corresponding ``1 / shards`` slice of the address space, selected by the
low bits of the line number — the same line-interleaved hash
``cache.address.bank_index`` uses for bank timing, so "shard" is exactly
"group of banks".  Per-shard addresses are *remapped* by dropping the
shard-selector bits from the line number: the shard's L2 slice (capacity
and sets scaled by ``1 / shards``) then sees a dense line space and uses
all of its sets, matching how a real banked array indexes with the bits
above the bank selector.  At ``shards=1`` the remap and the scaling are
both identities, which is what makes ``sharded --shards 1`` byte-identical
to the ``soa`` engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.config import GPUConfig, L2Config
from repro.errors import ConfigurationError, ReproError
from repro.units import is_power_of_two, log2_int
from repro.workloads.trace import Trace


def _validate_shards(l2: L2Config, shards: int) -> None:
    """Reject shard counts the L2 geometry cannot express."""
    if not isinstance(shards, int) or isinstance(shards, bool):
        raise ConfigurationError(f"shards must be an int, got {shards!r}")
    if shards < 1 or not is_power_of_two(shards):
        raise ConfigurationError(
            f"shards must be a positive power of two, got {shards}"
        )
    if shards > l2.num_banks:
        raise ConfigurationError(
            f"shards={shards} exceeds the L2's {l2.num_banks} banks; "
            "a shard is a group of banks, so shards <= num_banks"
        )


def shard_l2_config(l2: L2Config, shards: int) -> L2Config:
    """The L2 slice one shard owns: capacity, sets and banks over ``shards``.

    Associativity, line size, write threshold, retention times and —
    deliberately — the migration-buffer depth are unscaled: each shard has
    its *own* full-depth HR<->LR buffers, monitor and refresh engine, per
    the bank decomposition in FUSE-style designs.
    """
    _validate_shards(l2, shards)
    if shards == 1:
        return l2
    try:
        main = replace(
            l2.main, capacity_bytes=l2.main.capacity_bytes // shards
        )
        lr = (
            replace(l2.lr, capacity_bytes=l2.lr.capacity_bytes // shards)
            if l2.lr is not None else None
        )
        return replace(
            l2, main=main, lr=lr, num_banks=l2.num_banks // shards
        )
    except ReproError as error:
        raise ConfigurationError(
            f"L2 geometry does not divide into {shards} shards: {error}"
        ) from error


def shard_config(config: GPUConfig, shards: int) -> GPUConfig:
    """Scale a full GPU config down to the slice one shard simulates.

    Only the L2 is scaled: each shard worker keeps the full SM/L1/DRAM
    complement and replays its sub-stream against them (the per-shard
    front ends are the modeling approximation docs/sharding.md spells
    out; it vanishes at ``shards=1``).
    """
    scaled_l2 = shard_l2_config(config.l2, shards)
    if scaled_l2 is config.l2:
        return config
    return replace(config, l2=scaled_l2)


@dataclass(frozen=True)
class ShardPlan:
    """Everything fixed before any worker runs."""

    shards: int
    shard_bits: int
    line_size: int
    #: the scaled per-shard GPU config every worker receives
    sub_config: GPUConfig


def plan_shards(config: GPUConfig, shards: int) -> ShardPlan:
    """Validate and fix the shard decomposition for one run."""
    sub_config = shard_config(config, shards)
    return ShardPlan(
        shards=shards,
        shard_bits=log2_int(shards),
        line_size=config.l2.line_size,
        sub_config=sub_config,
    )


def shard_substream(
    trace: Trace, line_size: int, shards: int, shard: int
) -> Optional[Trace]:
    """Cut shard ``shard``'s sub-stream out of a trace, order-preserving.

    Shard ``s`` owns every access whose line-interleaved bank id (under
    ``num_banks = shards``) is ``s``; within a shard, accesses keep their
    original trace order, which is what makes per-bank busy-until timing
    reproducible.  Sub-stream addresses have the shard-selector bits
    dropped from the line number (see the module docstring).  A shard
    that owns no accesses gets ``None`` — :class:`~repro.workloads.trace.Trace`
    cannot be empty, and an idle shard has nothing to replay.

    The trace is walked one :meth:`~repro.workloads.trace.Trace.chunks`
    chunk at a time, twice: the first pass counts the shard's records,
    its columns are then allocated once at their final size, and the
    second pass writes every chunk's records into them in place.  Beyond
    the sub-stream itself, memory is set by the chunk.
    """
    from repro.cache.banked import BankedCache

    if not 0 <= shard < shards:
        raise ConfigurationError(f"shard {shard} is outside [0, {shards})")
    if shards == 1:
        return trace
    router = BankedCache(shards, line_size)
    count = 0
    for _, address, _ in trace.chunks():
        count += int(np.count_nonzero(router.assign(address) == shard))
    if not count:
        return None
    sub_sm = np.empty(count, np.int16)
    sub_address = np.empty(count, np.int64)
    sub_flags = np.empty(count, np.uint8)
    shift = log2_int(line_size)
    high_shift = shift + log2_int(shards)
    offset_mask = line_size - 1
    start = 0
    for sm, address, flags in trace.chunks():
        mask = router.assign(address) == shard
        stop = start + int(np.count_nonzero(mask))
        np.compress(mask, sm, out=sub_sm[start:stop])
        np.compress(mask, flags, out=sub_flags[start:stop])
        owned = sub_address[start:stop]
        np.compress(mask, address, out=owned)
        offset = owned & offset_mask
        owned >>= high_shift
        owned <<= shift
        owned |= offset
        start = stop
    return Trace(sub_sm, sub_address, sub_flags)


def partition_trace(
    trace: Trace, line_size: int, shards: int
) -> List[Optional[Trace]]:
    """Every shard's :func:`shard_substream`, in shard order."""
    return [
        shard_substream(trace, line_size, shards, shard)
        for shard in range(shards)
    ]
