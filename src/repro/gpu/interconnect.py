"""Butterfly interconnection network between SM clusters and L2 banks.

Table 2: "Interconnect topology: Butterfly".  A k-ary n-fly between the 15
SM clusters and the L2/memory-controller side has ``ceil(log2(max(src,
dst)))`` switch stages; we model per-hop pipeline latency plus serialization
of the line payload over the channel, and a load-dependent contention term
the simulator can feed with measured utilization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ButterflyNoC:
    """Latency model of a butterfly network.

    Attributes
    ----------
    num_sources / num_destinations:
        Endpoint counts (15 SM clusters; 6 MC / 8 L2-bank side).
    radix:
        Switch radix k (2 = classic butterfly).
    hop_cycles:
        Pipeline latency per stage (cycles).
    channel_bytes_per_cycle:
        Flit width — serialization cost of a payload.
    """

    num_sources: int = 15
    num_destinations: int = 8
    radix: int = 2
    hop_cycles: int = 2
    channel_bytes_per_cycle: int = 32

    def __post_init__(self) -> None:
        if self.num_sources <= 0 or self.num_destinations <= 0:
            raise ConfigurationError("endpoint counts must be positive")
        if self.radix < 2:
            raise ConfigurationError("radix must be at least 2")
        if self.hop_cycles <= 0 or self.channel_bytes_per_cycle <= 0:
            raise ConfigurationError("hop latency and channel width must be positive")
        # stage count is fixed by the topology; computing the log once keeps
        # traversal/contention queries off the math module (frozen dataclass,
        # hence object.__setattr__)
        endpoints = max(self.num_sources, self.num_destinations)
        object.__setattr__(
            self, "_num_stages",
            max(1, math.ceil(math.log(endpoints, self.radix))),
        )

    @property
    def num_stages(self) -> int:
        """Switch stages: ``ceil(log_k(N))`` over the larger side."""
        return self._num_stages

    def traversal_cycles(self, payload_bytes: int = 0) -> float:
        """One-way latency (cycles): pipeline + payload serialization."""
        if payload_bytes < 0:
            raise ConfigurationError("payload must be non-negative")
        serialization = payload_bytes / self.channel_bytes_per_cycle
        return self.num_stages * self.hop_cycles + serialization

    def round_trip_cycles(self, request_bytes: int = 8, response_bytes: int = 256) -> float:
        """Request/response round trip (cycles), e.g. a read miss to L2."""
        return self.traversal_cycles(request_bytes) + self.traversal_cycles(
            response_bytes
        )
