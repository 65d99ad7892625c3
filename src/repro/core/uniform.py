"""Uniform (single-array) L2 baselines: SRAM, and naive 10-year STT-RAM.

Both baselines share :class:`repro.core.interface.L2Interface` with the
two-part architecture so the GPU simulator and the experiment harnesses are
implementation-agnostic.
"""

from __future__ import annotations

from typing import Optional

from repro.areapower.cache_model import CacheEnergyModel
from repro.areapower.technology import TECH_40NM, TechnologyNode
from repro.cache.array import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.core.interface import EnergyLedger, L2AccessResult, L2Interface
from repro.errors import ConfigurationError
from repro.sttram.ewt import EWTModel
from repro.sttram.retention import RetentionLevel, retention_catalogue
from repro.tracing import TraceCollector


class UniformL2(L2Interface):
    """A conventional single-array L2 (SRAM or non-volatile STT-RAM).

    Parameters
    ----------
    capacity_bytes, associativity, line_size:
        Geometry (Table 2: 384 KB 8-way for SRAM, 1536 KB 8-way for STT).
    technology:
        ``"sram"`` or ``"stt"`` (10-year retention, no refresh needed).
    """

    #: Behavioural cache-array class; engine backends (``repro.engine``)
    #: subclass this L2 and swap in a drop-in array (docs/engine.md).
    ARRAY_FACTORY = SetAssociativeCache

    def __init__(
        self,
        capacity_bytes: int,
        associativity: int,
        line_size: int = 256,
        technology: str = "sram",
        tech: TechnologyNode = TECH_40NM,
        name: Optional[str] = None,
        early_write_termination: bool = False,
        tracer: Optional[TraceCollector] = None,
    ) -> None:
        if technology not in ("sram", "stt"):
            raise ConfigurationError(f"unknown uniform L2 technology {technology!r}")
        self.technology = technology
        self.name = name or f"uniform-{technology}"
        level: Optional[RetentionLevel] = None
        if technology == "stt":
            level = retention_catalogue()["10year"]
        ewt = None
        if early_write_termination and technology == "stt":
            ewt = EWTModel()
        self.model = CacheEnergyModel(
            capacity_bytes,
            associativity,
            line_size,
            sram_data=(technology == "sram"),
            retention_level=level,
            tech=tech,
            ewt=ewt,
        )
        self.array = self.ARRAY_FACTORY(
            capacity_bytes, associativity, line_size, name=self.name,
            tracer=tracer,
        )
        self._energy = EnergyLedger()
        #: data-array write operations (demand + fills), for Fig. 4-style stats
        self.data_writes = 0
        # hot-path scalars: the physical figures never change after
        # construction, so resolve the energy/latency roll-up once
        self._write_hit_energy = self.model.write_hit_energy
        self._read_hit_energy = self.model.read_hit_energy
        self._write_latency = self.model.write_latency
        self._read_latency = self.model.read_latency
        self._tag_probe_energy = self.model.tag_probe_energy
        self._fill_energy = self.model.fill_energy

    # --- L2Interface -------------------------------------------------------

    def access(self, address: int, is_write: bool, now: float) -> L2AccessResult:
        outcome = self.array.access(address, is_write, now)
        writebacks = 1 if outcome.evicted_dirty else 0
        if outcome.hit:
            if is_write:
                energy = self._write_hit_energy
                latency = self._write_latency
                self.data_writes += 1
            else:
                energy = self._read_hit_energy
                latency = self._read_latency
            self._energy.demand_j += energy
            return L2AccessResult(
                hit=True,
                part="uniform",
                latency_s=latency,
                energy_j=energy,
                dram_writebacks=writebacks,
            )
        # miss: tag probe now; the fill happened in the behavioural array,
        # charge it to the fill bucket (write misses allocate dirty).
        probe = self._tag_probe_energy
        fill = self._fill_energy if outcome.filled else 0.0
        if outcome.filled:
            self.data_writes += 1
        self._energy.demand_j += probe
        self._energy.fill_j += fill
        return L2AccessResult(
            hit=False,
            part="miss",
            latency_s=self._read_latency,
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
