"""Single-array relaxed-retention STT-RAM L2 (the Sun/Jog-style comparator).

The paper's refs [14] (Sun et al., MICRO 2011) and [7] (Jog et al., Cache
Revive, DAC 2012) relax retention *uniformly* across one array and keep data
alive with counter-driven refresh.  This class implements that design as an
additional comparator for the two-part architecture:

* every line sits at one relaxed retention level (default: the HR 40 ms
  point, cheaper writes than 10-year cells);
* a per-line retention counter schedules end-of-window action: dirty lines
  are refreshed in place (read + write, clock restarts), clean lines are
  simply invalidated (they can be re-fetched from DRAM);
* lines that expire unseen count as data losses (clean) or forced refetches.

Compared against :class:`~repro.core.twopart.TwoPartSTTL2`, the uniform
relaxed design pays refresh for *every* resident line while the two-part
design confines the short-retention (refresh-hungry) cells to the small LR
part — the contrast the paper's related-work section draws.
"""

from __future__ import annotations

from typing import Optional

from repro.areapower.cache_model import CacheEnergyModel
from repro.areapower.technology import TECH_40NM, TechnologyNode
from repro.cache.array import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.core.interface import EnergyLedger, L2AccessResult, L2Interface
from repro.core.refresh import cell_age
from repro.core.retention_counter import RetentionCounterSpec
from repro.errors import ConfigurationError
from repro.sttram.ewt import EWTModel
from repro.sttram.retention import RetentionLevel
from repro.tracing import TraceCollector

#: Counter width for the uniform design (matches the paper's HR part).
RELAXED_COUNTER_BITS = 2


class RelaxedUniformL2(L2Interface):
    """One STT-RAM array at a relaxed retention point with refresh."""

    def __init__(
        self,
        capacity_bytes: int,
        associativity: int,
        line_size: int = 256,
        retention_s: float = 40e-3,
        tech: TechnologyNode = TECH_40NM,
        early_write_termination: bool = False,
        name: str = "relaxed-stt",
        tracer: Optional["TraceCollector"] = None,
    ) -> None:
        if retention_s <= 0:
            raise ConfigurationError("retention must be positive")
        self.name = name
        level = RetentionLevel.from_retention_time("relaxed", retention_s)
        self.model = CacheEnergyModel(
            capacity_bytes,
            associativity,
            line_size,
            sram_data=False,
            retention_level=level,
            extra_status_bits=RELAXED_COUNTER_BITS,
            tech=tech,
            ewt=EWTModel() if early_write_termination else None,
        )
        self.array = SetAssociativeCache(
            capacity_bytes, associativity, line_size, name=name,
            tracer=tracer,
        )
        self.spec = RetentionCounterSpec(RELAXED_COUNTER_BITS, retention_s)
        self._next_sweep = self.spec.tick_s
        self._energy = EnergyLedger()
        self.refresh_writes = 0
        self.expiry_invalidations = 0
        self.data_losses = 0
        self.dram_writebacks_total = 0
        self.data_writes = 0

    # ------------------------------------------------------------------

    def maintenance(self, now: float) -> int:
        """Sweep the array once per counter tick; refresh/evict as needed."""
        if now < self._next_sweep:
            return 0
        self._next_sweep = now + self.spec.tick_s
        for index, way, block in self.array.iter_blocks():
            if not block.valid:
                continue
            age = cell_age(block, now)
            if self.spec.expired(age):
                # data decayed before the sweep reached it
                if block.dirty:
                    self.data_losses += 1
                self.array.sets[index].invalidate_way(way)
                self.expiry_invalidations += 1
            elif self.spec.needs_refresh(age):
                if block.dirty:
                    # refresh in place: read + rewrite, clock restarts
                    block.insert_time = now
                    self._energy.refresh_j += (
                        self.model.data_read_energy + self.model.data_write_energy
                    )
                    self.refresh_writes += 1
                else:
                    # clean data is re-fetchable: invalidating is cheaper
                    # than refreshing it (Cache Revive's observation)
                    self.array.sets[index].invalidate_way(way)
                    self.expiry_invalidations += 1
        return 0

    def access(self, address: int, is_write: bool, now: float) -> L2AccessResult:
        self.maintenance(now)
        line = self.array.mapper.line_address(address)
        block = self.array.block_at(line)
        if block is not None and self.spec.expired(cell_age(block, now)):
            if block.dirty:
                self.data_losses += 1
            self.array.invalidate(line)

        outcome = self.array.access(line, is_write, now)
        writebacks = 1 if outcome.evicted_dirty else 0
        self.dram_writebacks_total += writebacks
        if outcome.hit:
            if is_write:
                energy = self.model.write_hit_energy
                latency = self.model.write_latency
                self.data_writes += 1
            else:
                energy = self.model.read_hit_energy
                latency = self.model.read_latency
            self._energy.demand_j += energy
            return L2AccessResult(
                hit=True, part="uniform", latency_s=latency, energy_j=energy,
                dram_writebacks=writebacks,
            )
        probe = self.model.tag_probe_energy
        fill = self.model.fill_energy if outcome.filled else 0.0
        if outcome.filled:
            self.data_writes += 1
        self._energy.demand_j += probe
        self._energy.fill_j += fill
        return L2AccessResult(
            hit=False, part="miss",
            latency_s=self.model.read_latency,
            energy_j=probe + fill,
            dram_fetch=True,
            dram_writebacks=writebacks,
        )

    def dirty_lines(self) -> int:
        return self.array.dirty_count()

    @property
    def stats(self) -> CacheStats:
        return self.array.stats

    @property
    def energy(self) -> EnergyLedger:
        return self._energy

    @property
    def leakage_power(self) -> float:
        return self.model.leakage_power

    @property
    def area(self) -> float:
        return self.model.area
