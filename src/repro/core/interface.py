"""Common L2 interface shared by baselines and the two-part architecture.

The GPU simulator talks to *any* L2 through :class:`L2Interface`; per-access
results carry the latency/energy the access cost and whether DRAM traffic
(fetch or write-back) was generated, so the memory-side models stay outside
the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.cache.stats import CacheStats


class L2AccessResult:
    """Outcome of one L2 access.

    A plain ``__slots__`` class rather than a dataclass: one is allocated
    per L2 request on the replay hot path, and slots cut both the per-object
    footprint and the attribute-access cost.

    Attributes
    ----------
    hit:
        Demand hit anywhere in the L2.
    part:
        ``"lr"``, ``"hr"``, ``"uniform"`` or ``"miss"`` — where the access
        was served.
    latency_s:
        Access service latency (tag probes + data array), excluding DRAM.
    energy_j:
        Dynamic energy charged to this access (probes, data movement,
        migrations it triggered).
    dram_fetch:
        True when the access missed and a line must be fetched from DRAM.
    dram_writebacks:
        Number of dirty lines this access pushed to DRAM (evictions,
        buffer overflows, expiry write-backs).
    probes:
        Number of tag-array probes performed (sequential search statistics).
    migrated:
        True when the access triggered an HR->LR migration.
    """

    __slots__ = (
        "hit", "part", "latency_s", "energy_j",
        "dram_fetch", "dram_writebacks", "probes", "migrated",
    )

    def __init__(
        self,
        hit: bool,
        part: str,
        latency_s: float,
        energy_j: float,
        dram_fetch: bool = False,
        dram_writebacks: int = 0,
        probes: int = 1,
        migrated: bool = False,
    ) -> None:
        self.hit = hit
        self.part = part
        self.latency_s = latency_s
        self.energy_j = energy_j
        self.dram_fetch = dram_fetch
        self.dram_writebacks = dram_writebacks
        self.probes = probes
        self.migrated = migrated

    def _astuple(self) -> tuple:
        return (
            self.hit, self.part, self.latency_s, self.energy_j,
            self.dram_fetch, self.dram_writebacks, self.probes, self.migrated,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, L2AccessResult):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"L2AccessResult(hit={self.hit}, part={self.part!r}, "
            f"latency_s={self.latency_s}, energy_j={self.energy_j}, "
            f"dram_fetch={self.dram_fetch}, "
            f"dram_writebacks={self.dram_writebacks}, "
            f"probes={self.probes}, migrated={self.migrated})"
        )


@dataclass
class EnergyLedger:
    """Cumulative dynamic-energy bookkeeping for one L2 instance."""

    demand_j: float = 0.0
    migration_j: float = 0.0
    refresh_j: float = 0.0
    fill_j: float = 0.0

    @property
    def total_j(self) -> float:
        """All dynamic energy spent so far."""
        return self.demand_j + self.migration_j + self.refresh_j + self.fill_j

    def as_dict(self) -> Dict[str, float]:
        """Flatten for reporting."""
        return {
            "demand_j": self.demand_j,
            "migration_j": self.migration_j,
            "refresh_j": self.refresh_j,
            "fill_j": self.fill_j,
            "total_j": self.total_j,
        }


class L2Interface:
    """Protocol-style base class for L2 implementations.

    Subclasses must implement :meth:`access` and expose ``stats`` (merged
    :class:`CacheStats`), ``energy`` (:class:`EnergyLedger`),
    ``leakage_power`` (W) and ``area`` (m^2).

    ``faults`` is the optional fault-injection attachment point
    (:class:`repro.faults.FaultInjector`): implementations that support
    injection accept it at construction and consult it on their cell-write
    / eviction / hit paths; ``None`` (the default) must leave behaviour
    byte-identical.  Observers such as
    :class:`repro.faults.InvariantChecker` read it via this attribute.
    """

    name: str = "l2"
    #: optional attached fault injector; None disables every hook
    faults = None

    def access(self, address: int, is_write: bool, now: float) -> L2AccessResult:
        """Serve a demand access at simulated time ``now`` (seconds)."""
        raise NotImplementedError

    def maintenance(self, now: float) -> int:
        """Run background work (refresh/expiry) up to ``now``.

        Returns the number of DRAM write-backs generated.  Default: none.
        """
        return 0

    def dirty_lines(self) -> int:
        """Dirty lines currently resident (eventual write-back debt).

        The simulator adds these to the DRAM write traffic at end of run so
        short traces don't credit large caches with write absorption they
        only defer (steady-state correction).
        """
        raise NotImplementedError

    @property
    def stats(self) -> CacheStats:
        raise NotImplementedError

    @property
    def energy(self) -> EnergyLedger:
        raise NotImplementedError

    @property
    def leakage_power(self) -> float:
        raise NotImplementedError

    @property
    def area(self) -> float:
        raise NotImplementedError
