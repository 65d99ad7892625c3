"""Address-interleaved cache banking: shard router + conflict accounting.

The GPU L2 is "a banked cache array shared by all SMs"; each bank serves one
request at a time.  In a trace-driven model we cannot replay true request
timing, so the bank model tracks, per bank, a *busy-until* timestamp: a
request arriving while its bank is busy queues behind it and the extra wait
is reported as conflict latency.  This captures the first-order effect the
paper relies on (slow STT-RAM writes occupy banks longer, and the LR part
absorbs them).

Since the sharded engine (``repro.shard``, docs/sharding.md) the same bank
hash also *routes*: :meth:`BankedCache.assign` vectorizes the
line-interleaved hash over a whole address column so a trace can be
partitioned into per-bank sub-streams, and the scheduler keeps per-bank
:class:`BankStats` (surfaced as ``SimulationResult.bank_stats``) alongside
the aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.cache.address import bank_index
from repro.errors import ConfigurationError, GeometryError
from repro.units import log2_int


@dataclass
class BankStats:
    """Per-bank-array counters.

    ``conflict_rate`` and ``mean_wait`` are ``None`` for a bank that served
    no requests: an idle bank is *not* the same thing as a busy bank that
    never queued, and reporting ``0.0`` for both made them
    indistinguishable in aggregated reports (see
    :func:`summarize_banks`, which excludes idle banks).
    """

    requests: int = 0
    conflicts: int = 0
    total_wait: float = 0.0

    @property
    def idle(self) -> bool:
        """True when this bank served no requests at all."""
        return self.requests == 0

    @property
    def conflict_rate(self) -> Optional[float]:
        """Fraction of requests that had to queue; ``None`` when idle."""
        return self.conflicts / self.requests if self.requests else None

    @property
    def mean_wait(self) -> Optional[float]:
        """Mean queueing wait (s) over all requests; ``None`` when idle."""
        return self.total_wait / self.requests if self.requests else None


def summarize_banks(banks: Iterable[BankStats]) -> Dict[str, Any]:
    """Battery-level roll-up over a bank set, excluding idle banks.

    Idle banks contribute to ``banks`` (the population count) but not to
    the rate/wait averages — folding their ``0.0`` placeholders in used to
    silently dilute the contention picture of the active banks.
    """
    banks = list(banks)
    active = [b for b in banks if not b.idle]
    requests = sum(b.requests for b in active)
    conflicts = sum(b.conflicts for b in active)
    total_wait = sum(b.total_wait for b in active)
    return {
        "banks": len(banks),
        "active_banks": len(active),
        "idle_banks": len(banks) - len(active),
        "requests": requests,
        "conflicts": conflicts,
        "conflict_rate": conflicts / requests if requests else None,
        "mean_wait_s": total_wait / requests if requests else None,
    }


class BankedCache:
    """Bank scheduler and shard router: maps lines to banks, accounts contention.

    This class does not store cache lines itself; it wraps whichever
    behavioural array the owner routes requests to, adding only the bank
    timing dimension.  Keeping the concerns separate lets the same scheduler
    front the SRAM baseline, the naive STT baseline and the two-part cache —
    and lets the sharded engine reuse the hash as a trace partitioner
    (:meth:`assign`) without duplicating the geometry rules.
    """

    def __init__(self, num_banks: int, line_size: int) -> None:
        if num_banks <= 0:
            raise ConfigurationError("bank count must be positive")
        self.num_banks = num_banks
        self.line_size = line_size
        # validate the geometry once (power-of-two checks) so the per-request
        # bank hash is a bare shift-and-mask
        bank_index(0, line_size, num_banks)
        self._line_shift = log2_int(line_size)
        self._bank_mask = num_banks - 1
        self._busy_until: List[float] = [0.0] * num_banks
        self.stats = BankStats()
        #: per-bank counters, same hash as the aggregate (bank i at index i)
        self.per_bank: List[BankStats] = [BankStats() for _ in range(num_banks)]

    def bank_for(self, address: int) -> int:
        """Bank serving ``address`` (line-interleaved)."""
        if address < 0:
            raise GeometryError(f"address must be non-negative, got {address}")
        return (address >> self._line_shift) & self._bank_mask

    def assign(self, addresses):
        """Vectorized bank hash over a whole address column.

        ``addresses`` is a numpy integer array; returns an array of bank
        ids computed with the same shift-and-mask as :meth:`bank_for`.
        This is the sharded engine's partition primitive: shard ``s`` owns
        every access whose bank id (under ``num_banks = shards``) is ``s``.
        """
        if len(addresses) and int(addresses.min()) < 0:
            raise GeometryError("addresses must be non-negative")
        return (addresses >> self._line_shift) & self._bank_mask

    def schedule(self, address: int, now: float, service_time: float) -> float:
        """Admit a request; returns the queueing wait (s) it experienced.

        The bank is then busy until ``max(now, prev_busy) + service_time``.
        """
        if service_time < 0:
            raise ConfigurationError("service time must be non-negative")
        if address < 0:
            raise GeometryError(f"address must be non-negative, got {address}")
        bank = (address >> self._line_shift) & self._bank_mask
        busy = self._busy_until[bank]
        start = busy if busy > now else now
        wait = start - now
        self._busy_until[bank] = start + service_time
        stats = self.stats
        bank_stats = self.per_bank[bank]
        stats.requests += 1
        bank_stats.requests += 1
        if wait > 0:
            stats.conflicts += 1
            stats.total_wait += wait
            bank_stats.conflicts += 1
            bank_stats.total_wait += wait
        return wait

    def utilization(self, elapsed: float) -> float:
        """Aggregate bank busy fraction over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        busy = sum(min(t, elapsed) for t in self._busy_until)
        return busy / (self.num_banks * elapsed)
