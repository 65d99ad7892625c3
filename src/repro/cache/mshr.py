"""Miss-Status Holding Registers (MSHR) with same-line coalescing.

GPU caches sustain many outstanding misses; an MSHR file tracks them and
merges (coalesces) secondary misses to a line that is already being fetched.
When the file is full the cache must stall — the simulator charges that as
extra exposed latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError, SimulationError


@dataclass
class MSHRStats:
    """Counters for MSHR behaviour."""

    allocations: int = 0
    coalesced: int = 0
    stalls: int = 0
    completions: int = 0


class MSHRFile:
    """Fixed-capacity MSHR file keyed by line address."""

    def __init__(self, num_entries: int, max_merged: int = 8) -> None:
        if num_entries <= 0:
            raise ConfigurationError("MSHR entry count must be positive")
        if max_merged <= 0:
            raise ConfigurationError("merge capacity must be positive")
        self.num_entries = num_entries
        self.max_merged = max_merged
        self._entries: Dict[int, int] = {}  # line address -> merged count
        self.stats = MSHRStats()

    @property
    def full(self) -> bool:
        """True when no new line can be tracked."""
        return len(self._entries) >= self.num_entries

    def register_miss(self, line_address: int) -> str:
        """Track a miss; returns ``"allocated"``, ``"coalesced"`` or ``"stall"``.

        * ``allocated`` — a new entry was created (a new memory request goes
          out).
        * ``coalesced`` — merged into an outstanding fetch (no new request).
        * ``stall`` — the file (or the entry's merge slots) is full; the
          requester must retry, which the simulator charges as a stall.
        """
        merged = self._entries.get(line_address)
        if merged is not None:
            if merged >= self.max_merged:
                self.stats.stalls += 1
                return "stall"
            self._entries[line_address] = merged + 1
            self.stats.coalesced += 1
            return "coalesced"
        if self.full:
            self.stats.stalls += 1
            return "stall"
        self._entries[line_address] = 1
        self.stats.allocations += 1
        return "allocated"

    def complete(self, line_address: int) -> int:
        """Retire the fetch for a line; returns how many requests it served."""
        merged = self._entries.pop(line_address, None)
        if merged is None:
            raise SimulationError(
                f"completing a fetch that was never registered: {line_address:#x}"
            )
        self.stats.completions += 1
        return merged
