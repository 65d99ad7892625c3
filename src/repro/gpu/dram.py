"""Off-chip DRAM: per-channel queueing + row-locality latency model.

Each L2 bank pairs with a memory controller ("each L2 bank has a
point-to-point connection with an off-chip DRAM by a dedicated memory
controller").  We model:

* ``num_channels`` independent channels, address-interleaved at line
  granularity;
* a base access latency (row activate + CAS + bus) discounted for row-buffer
  hits (same row as the channel's last access);
* per-channel service occupancy (one line transfer at a time), so sustained
  over-subscription shows up as queueing latency — this is where bandwidth
  pressure limits cache-insensitive streaming workloads.  The wait is capped
  because a real GPU throttles injection rather than queueing unboundedly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.tracing import NULL_TRACER, TraceCollector
from repro.units import GB, NS


@dataclass
class DRAMStats:
    """DRAM traffic counters."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    total_wait_s: float = 0.0

    @property
    def accesses(self) -> int:
        """All line transfers."""
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        """Row-buffer hit rate."""
        return self.row_hits / self.accesses if self.accesses else 0.0


class DRAMModel:
    """GDDR-class memory behind the L2."""

    def __init__(
        self,
        num_channels: int = 6,
        line_size: int = 256,
        base_latency_s: float = 650 * NS,
        row_hit_latency_s: float = 350 * NS,
        bandwidth_bytes_per_s: float = 177 * GB,
        row_size: int = 2048,
        max_queue_wait_factor: float = 8.0,
        tracer: Optional[TraceCollector] = None,
    ) -> None:
        if num_channels <= 0:
            raise ConfigurationError("need at least one channel")
        if line_size <= 0 or row_size <= 0:
            raise ConfigurationError("line and row sizes must be positive")
        if not 0 < row_hit_latency_s <= base_latency_s:
            raise ConfigurationError("row-hit latency must be in (0, base]")
        if bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if max_queue_wait_factor < 0:
            raise ConfigurationError("queue cap must be non-negative")
        self.num_channels = num_channels
        self.line_size = line_size
        self.base_latency_s = base_latency_s
        self.row_hit_latency_s = row_hit_latency_s
        self.row_size = row_size
        #: seconds one line transfer occupies its channel
        self.service_time_s = line_size / (bandwidth_bytes_per_s / num_channels)
        self.max_wait_s = max_queue_wait_factor * base_latency_s
        self._busy_until: List[float] = [0.0] * num_channels
        #: accumulated seconds of service time per channel (utilization)
        self._busy_s: List[float] = [0.0] * num_channels
        self._open_row: List[int] = [-1] * num_channels
        self.stats = DRAMStats()
        #: optional trace collector (``dram.*`` counters + latency histogram)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # line-interleaving shift when the line size is a power of two
        # (the usual case); channel counts are rarely powers of two (6 on
        # the paper's GPU), so the modulo stays
        self._line_shift = (
            line_size.bit_length() - 1
            if line_size & (line_size - 1) == 0 else None
        )

    def _channel(self, address: int) -> int:
        if self._line_shift is not None:
            return (address >> self._line_shift) % self.num_channels
        return (address // self.line_size) % self.num_channels

    def access(self, address: int, is_write: bool, now: float) -> float:
        """Serve one line transfer; returns its total latency (seconds).

        Writes are drained at low priority from a separate write queue (as
        GPU memory controllers do), so they do not delay read fetches in the
        queue model; they still count toward total bandwidth (the simulator's
        throughput cap uses ``stats.accesses``).
        """
        channel = self._channel(address)
        row = address // self.row_size
        if is_write:
            self.stats.writes += 1
            self.tracer.count("dram.writes")
            return self.service_time_s
        self.stats.reads += 1
        row_hit = self._open_row[channel] == row
        if row_hit:
            self.stats.row_hits += 1
            latency = self.row_hit_latency_s
        else:
            latency = self.base_latency_s
            self._open_row[channel] = row
        start = max(now, self._busy_until[channel])
        wait = min(start - now, self.max_wait_s)
        self._busy_until[channel] = start + self.service_time_s
        self._busy_s[channel] += self.service_time_s
        self.stats.total_wait_s += wait
        if self.tracer.enabled:
            self.tracer.count("dram.reads")
            if row_hit:
                self.tracer.count("dram.row_hits")
            self.tracer.observe("dram.read_latency_s", wait + latency)
            self.tracer.observe("dram.queue_wait_s", wait)
        return wait + latency

    def write_back(self, count: int = 1) -> None:
        """Account ``count`` line write-backs in one call.

        Write-backs drain from the low-priority write queue and never touch
        the read-path channel state (see :meth:`access`), so a batch of them
        is just a traffic-counter bump — callers retiring several
        write-backs per L2 access (eviction + buffer overflow + expiry) use
        this instead of ``count`` separate :meth:`access` calls.
        """
        if count <= 0:
            return
        self.stats.writes += count
        if self.tracer.enabled:
            self.tracer.count("dram.writes", count)

    def utilization(self, elapsed_s: float) -> float:
        """Aggregate channel busy fraction over the run.

        Busy time is the *accumulated service time* per channel, not the
        channel's ``_busy_until`` timestamp (summing clamped timestamps
        made a channel that served one late request read as busy for the
        whole run).  Service time queued past ``elapsed_s`` is excluded:
        requests serialize per channel, so the unfinished tail is the
        contiguous interval ``(elapsed_s, _busy_until]``.
        """
        if elapsed_s <= 0:
            return 0.0
        busy = 0.0
        for served_s, until in zip(self._busy_s, self._busy_until):
            overhang = until - elapsed_s
            if overhang > 0:
                served_s -= overhang
            if served_s > elapsed_s:
                served_s = elapsed_s
            if served_s > 0:
                busy += served_s
        return busy / (self.num_channels * elapsed_s)
