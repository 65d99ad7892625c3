"""HR<->LR migration/refresh buffers.

The two L2 parts have very different write latencies, so blocks in flight
between them sit in small buffers (the paper sizes them around 10-20 lines
and reports <1% area overhead).  Each buffer drains through a single write
port into its destination array; when a buffer is full, an incoming dirty
line is forced to write back to DRAM instead ("On buffer full, dirty lines
are forced to be written back in main memory") — rare, worst case ~1% in
the paper.

The trace-driven model keeps a FIFO of ``(line_address, dirty, ready_time)``
entries; ``drain`` retires entries whose destination write has completed by
the current simulated time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.tracing import NULL_TRACER, TraceCollector


@dataclass
class BufferStats:
    """Migration buffer counters."""

    pushes: int = 0
    drains: int = 0
    overflows: int = 0
    peak_occupancy: int = 0


class MigrationBuffer:
    """Fixed-depth FIFO buffer with a single drain port.

    Parameters
    ----------
    capacity_lines:
        Buffer depth in cache lines.
    drain_service_time:
        Seconds one destination write occupies the drain port (the
        destination array's write latency).
    name:
        For diagnostics (also names the trace counters / Perfetto track).
    tracer:
        Optional :class:`~repro.tracing.TraceCollector`; records the
        occupancy time series (``l2.buffer.<name>.occupancy``) and the
        overflow counters backing the paper's ~1% worst-case
        buffer-overflow write-back claim.
    """

    def __init__(
        self,
        capacity_lines: int,
        drain_service_time: float,
        name: str = "buffer",
        tracer: Optional[TraceCollector] = None,
    ) -> None:
        if capacity_lines < 1:
            raise ConfigurationError("buffer capacity must be at least one line")
        if drain_service_time < 0:
            raise ConfigurationError("drain service time must be non-negative")
        self.capacity_lines = capacity_lines
        self.drain_service_time = drain_service_time
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._entries: Deque[Tuple[int, bool, float]] = deque()
        self._port_free_at = 0.0
        self.stats = BufferStats()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        """No space for another line."""
        return len(self._entries) >= self.capacity_lines

    def push(self, line_address: int, dirty: bool, now: float) -> bool:
        """Enqueue a line; returns False on overflow (caller writes to DRAM)."""
        if self.full:
            self.stats.overflows += 1
            if self.tracer.enabled:
                self.tracer.count(f"l2.buffer.{self.name}.overflows")
            return False
        start = max(now, self._port_free_at)
        ready = start + self.drain_service_time
        self._port_free_at = ready
        self._entries.append((line_address, dirty, ready))
        self.stats.pushes += 1
        self.stats.peak_occupancy = max(self.stats.peak_occupancy, len(self._entries))
        if self.tracer.enabled:
            self.tracer.count(f"l2.buffer.{self.name}.pushes")
            self.tracer.sample(
                f"l2.buffer.{self.name}.occupancy", now, len(self._entries),
                component=f"l2.buffer.{self.name}",
            )
        return True

    def force_pop(self) -> Tuple[int, bool]:
        """Evict the oldest entry regardless of timing (overflow handling).

        The paper forces buffered dirty lines to DRAM when the buffer fills;
        the caller is responsible for the write-back.  Raises when empty.
        """
        if not self._entries:
            raise ConfigurationError(f"{self.name}: force_pop on empty buffer")
        address, dirty, _ = self._entries.popleft()
        self.stats.overflows += 1
        if self.tracer.enabled:
            self.tracer.count(f"l2.buffer.{self.name}.overflows")
        return address, dirty

    def drain_ready(self, now: float) -> List[Tuple[int, bool]]:
        """Pop every entry whose destination write completed by ``now``."""
        ready: List[Tuple[int, bool]] = []
        while self._entries and self._entries[0][2] <= now:
            address, dirty, _ = self._entries.popleft()
            ready.append((address, dirty))
            self.stats.drains += 1
        return ready

    def snapshot(self) -> dict:
        """JSON-safe dump of the in-flight entries and port timing.

        The differential oracle compares this against its reference
        buffer's snapshot (entry order matters: it is the drain order).
        """
        return {
            "entries": [[a, d, r] for a, d, r in self._entries],
            "port_free_at": self._port_free_at,
        }

    def pending(self) -> List[int]:
        """Line addresses currently in flight."""
        return [a for a, _, _ in self._entries]
