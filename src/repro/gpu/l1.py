"""GPU L1 data cache with the paper's write policies (their Fig. 1-b).

GPU L1s are private and incoherent, so global stores cannot linger in L1:

* **global write, L1 hit** — *write-evict*: the L1 copy is invalidated and
  the store is written through to the L2;
* **global write, L1 miss** — *write-no-allocate*: the store goes straight
  to the L2;
* **global read** — normal allocate-on-miss;
* **local (per-thread) data** — conventional write-back/write-allocate;
  dirty local lines reach the L2 only on eviction.

Because globals are never left dirty in L1, every dirty L1 line is local
data by construction — the eviction path needs no space tag.

``access`` returns the list of L2 requests the access generated, so the
simulator owns all inter-level routing and timing.

The cache also models its MSHR file: a read miss registers in the MSHRs
and the line is installed only when the owner reports the fetch latency
via :meth:`GPUL1Cache.complete_fetch`; further misses to an in-flight line
*coalesce* (no duplicate L2 request).  The characterization replays
(Figs. 3-6) need only the filtered L2 stream with fills landing at once;
:func:`repro.experiments.common.replay_through_l1` runs that filter on
flat per-SM state instead of these objects.  It differs from this cache
in one way only: it has no MSHR file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cache.array import SetAssociativeCache
from repro.cache.mshr import MSHRFile
from repro.config import L1Config
from repro.tracing import NULL_TRACER, TraceCollector


@dataclass(frozen=True)
class L2Request:
    """One request the L1 sends down to the L2.

    ``kind`` is ``"fetch"`` (read miss fill), ``"write"`` (global write
    through) or ``"writeback"`` (dirty local eviction).
    """

    kind: str
    address: int

    @property
    def is_write(self) -> bool:
        """Does this request write the L2 data array?"""
        return self.kind in ("write", "writeback")


@dataclass
class L1Stats:
    """GPU-specific L1 counters (beyond the generic array stats)."""

    global_reads: int = 0
    global_writes: int = 0
    local_reads: int = 0
    local_writes: int = 0
    write_evictions: int = 0
    local_writebacks: int = 0
    coalesced_misses: int = 0
    mshr_stalls: int = 0


class GPUL1Cache:
    """One SM's L1 data cache.

    Parameters
    ----------
    config:
        Geometry.
    mshr_entries:
        MSHR file depth (GPU L1s typically hold 32-64 outstanding lines).
    tracer:
        Optional :class:`~repro.tracing.TraceCollector`; mirrors the
        GPU-specific policy events (write-evictions, local write-backs,
        coalesced misses, MSHR stalls) into aggregate ``l1.*`` counters.
    """

    def __init__(
        self,
        config: L1Config,
        name: str = "l1",
        mshr_entries: int = 32,
        tracer: Optional[TraceCollector] = None,
    ) -> None:
        self.config = config
        self.array = SetAssociativeCache(
            config.capacity_bytes,
            config.associativity,
            config.line_size,
            name=name,
        )
        self.gpu_stats = L1Stats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.mshr = MSHRFile(mshr_entries)
        #: line -> (ready_time, fill_dirty) for in-flight fetches
        self._pending: Dict[int, List] = {}
        # Earliest ready_time of any in-flight fetch: lets _drain_fills skip
        # the pending scan entirely when no fill can have landed yet.  May
        # run stale-LOW (a cancelled fill leaves it behind), which only
        # costs an extra scan; it is never stale-high, which would delay a
        # landing.
        self._min_ready: float = math.inf

    @property
    def hit_rate(self) -> float:
        """Demand hit rate of the underlying array."""
        return self.array.stats.hit_rate

    def access(
        self, address: int, is_write: bool, is_local: bool, now: float
    ) -> List[L2Request]:
        """Perform one access; returns L2 requests generated (possibly none).

        Fills whose fetch completed by ``now`` land first; any dirty lines
        they evict come back as ``writeback`` requests.
        """
        requests = self._drain_fills(now)
        if is_local:
            requests.extend(self._access_local(address, is_write, now))
        else:
            requests.extend(self._access_global(address, is_write, now))
        return requests

    # --- MSHR / deferred-fill machinery --------------------------------

    def _drain_fills(self, now: float) -> List[L2Request]:
        requests: List[L2Request] = []
        if not self._pending or now < self._min_ready:
            return requests
        # one pass: collect lines whose fetch landed, track the earliest
        # still-outstanding ready time for the next skip check
        landed: List[int] = []
        min_ready = math.inf
        for line, entry in self._pending.items():
            ready = entry[0]
            if ready is None:
                continue
            if ready <= now:
                landed.append(line)
            elif ready < min_ready:
                min_ready = ready
        self._min_ready = min_ready
        for line in landed:
            _, dirty = self._pending.pop(line)
            outcome = self.array.fill(line, now, dirty=dirty)
            self.mshr.complete(line)
            if outcome.evicted_dirty:
                assert outcome.evicted_address is not None
                requests.append(L2Request("writeback", outcome.evicted_address))
                self.gpu_stats.local_writebacks += 1
                self.tracer.count("l1.local_writebacks")
        return requests

    def _register_fetch(self, line: int, dirty: bool) -> List[L2Request]:
        """Track a miss in the MSHRs; returns the L2 fetch to issue (if any)."""
        if line in self._pending:
            # secondary miss to an in-flight line: coalesce, maybe merge a
            # dirty intent (a local write arriving while the fetch flies)
            self.mshr.register_miss(line)
            self._pending[line][1] = self._pending[line][1] or dirty
            self.gpu_stats.coalesced_misses += 1
            self.tracer.count("l1.coalesced_misses")
            return []
        status = self.mshr.register_miss(line)
        if status == "stall":
            # MSHRs full: issue an uncached (non-allocating) fetch
            self.gpu_stats.mshr_stalls += 1
            self.tracer.count("l1.mshr_stalls")
            return [L2Request("fetch", line)]
        self._pending[line] = [None, dirty]
        return [L2Request("fetch", line)]

    def complete_fetch(self, line_address: int, ready_time: float) -> None:
        """Report when an issued fetch's data arrives.

        Unknown lines are ignored: fetches issued past a full MSHR file are
        uncached and fill nothing.
        """
        entry = self._pending.get(line_address)
        if entry is not None and entry[0] is None:
            entry[0] = ready_time
            if ready_time < self._min_ready:
                self._min_ready = ready_time

    def _access_global(self, address: int, is_write: bool, now: float) -> List[L2Request]:
        line = self.array.mapper.line_address(address)
        if is_write:
            self.gpu_stats.global_writes += 1
            # write-evict on hit / write-no-allocate on miss: never leaves a
            # copy in L1, so we account the demand access by hand instead of
            # letting the write-allocate array install one
            self.array.stats.writes += 1
            if self.array.probe(address):
                self.array.stats.write_hits += 1
                self.array.invalidate(address)
                self.gpu_stats.write_evictions += 1
                self.tracer.count("l1.write_evictions")
            elif line in self._pending:
                # the store supersedes an in-flight fetch: cancel the fill
                # so a stale copy never lands over the written-through data
                self._pending.pop(line)
                self.mshr.complete(line)
            return [L2Request("write", line)]
        self.gpu_stats.global_reads += 1
        if self.array.access(address, False, now, allocate=False).hit:
            return []
        return self._register_fetch(line, dirty=False)

    def _access_local(self, address: int, is_write: bool, now: float) -> List[L2Request]:
        line = self.array.mapper.line_address(address)
        if is_write:
            self.gpu_stats.local_writes += 1
        else:
            self.gpu_stats.local_reads += 1
        if self.array.access(address, is_write, now, allocate=False).hit:
            return []
        # write misses allocate once the fetch lands (fill-dirty merges the
        # pending store into the incoming line)
        return self._register_fetch(line, dirty=is_write)
