"""Whole-cache physical roll-up: SRAM tags + SRAM or STT-RAM data.

The paper keeps tag arrays in SRAM even for STT-RAM caches ("we keep tag
array SRAM so it is fast and its area overhead remains insignificant"); this
module mirrors that split.  It produces the per-operation energies, leakage,
area and latency figures the simulator charges per event:

======================  ====================================================
operation               energy charged
======================  ====================================================
tag probe               read of one set's worth of tag records
read hit                tag probe + data line read
write hit               tag probe + data line write
miss (probe only)       tag probe
fill                    tag record write + data line write
======================  ====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

from repro.areapower.sram import SRAMArrayModel
from repro.areapower.sttram_array import STTDataArrayModel
from repro.areapower.technology import TechnologyNode, TECH_40NM
from repro.areapower.wire import WireModel
from repro.errors import GeometryError
from repro.sttram.ewt import EWTModel
from repro.sttram.retention import RetentionLevel
from repro.units import is_power_of_two

#: Physical address width assumed for tag sizing.
PHYSICAL_ADDRESS_BITS = 40

#: Valid + dirty + replacement state per tag record, before any retention or
#: write counters the architecture adds.
BASE_STATUS_BITS = 4

DataArray = Union[SRAMArrayModel, STTDataArrayModel]


def _tag_bits(capacity_bytes: int, associativity: int, line_size_bytes: int) -> int:
    """Address tag width for the given geometry."""
    if capacity_bytes % (associativity * line_size_bytes) != 0:
        raise GeometryError(
            f"capacity {capacity_bytes} does not factor into "
            f"{associativity} ways of {line_size_bytes}B lines"
        )
    sets = capacity_bytes // (associativity * line_size_bytes)
    if not is_power_of_two(line_size_bytes):
        raise GeometryError(f"line size must be a power of two, got {line_size_bytes}")
    index_bits = max(0, int(math.log2(sets))) if sets > 1 else 0
    offset_bits = int(math.log2(line_size_bytes))
    return PHYSICAL_ADDRESS_BITS - index_bits - offset_bits


@dataclass(frozen=True)
class CacheEnergyModel:
    """Physical model of one cache array (tags + data).

    Attributes
    ----------
    capacity_bytes, associativity, line_size_bytes:
        Cache geometry.
    sram_data:
        True for an SRAM data array; False selects STT-RAM, in which case
        ``retention_level`` must be given.
    retention_level:
        Device operating point for STT-RAM data arrays.
    extra_status_bits:
        Per-line counters the architecture adds (retention counters, write
        counters); charged to the tag array.
    tech, wire:
        Process and wire models.
    """

    capacity_bytes: int
    associativity: int
    line_size_bytes: int
    sram_data: bool = True
    retention_level: Optional[RetentionLevel] = None
    extra_status_bits: int = 0
    tech: TechnologyNode = TECH_40NM
    wire: WireModel = field(default_factory=WireModel)
    #: optional early-write-termination model for STT-RAM data arrays
    ewt: Optional[EWTModel] = None

    def __post_init__(self) -> None:
        if self.associativity <= 0:
            raise GeometryError("associativity must be positive")
        if self.extra_status_bits < 0:
            raise GeometryError("extra status bits must be non-negative")
        if not self.sram_data and self.retention_level is None:
            raise GeometryError("STT-RAM data arrays need a retention level")
        # Validate geometry eagerly so bad configs fail at construction.
        _tag_bits(self.capacity_bytes, self.associativity, self.line_size_bytes)

    # --- constituent arrays ------------------------------------------------

    @cached_property
    def tag_record_bits(self) -> int:
        """Bits per tag record (tag + status + architectural counters)."""
        return (
            _tag_bits(self.capacity_bytes, self.associativity, self.line_size_bytes)
            + BASE_STATUS_BITS
            + self.extra_status_bits
        )

    @cached_property
    def num_lines(self) -> int:
        """Total line count."""
        return self.capacity_bytes // self.line_size_bytes

    @cached_property
    def tag_array(self) -> SRAMArrayModel:
        """The SRAM tag array; a probe reads one set's tag records."""
        tag_capacity = max(1, (self.num_lines * self.tag_record_bits + 7) // 8)
        return SRAMArrayModel(
            capacity_bytes=tag_capacity,
            access_bits=self.tag_record_bits * self.associativity,
            tech=self.tech,
            wire=self.wire,
        )

    @cached_property
    def data_array(self) -> DataArray:
        """The data array (SRAM or STT-RAM)."""
        if self.sram_data:
            return SRAMArrayModel(
                capacity_bytes=self.capacity_bytes,
                access_bits=self.line_size_bytes * 8,
                tech=self.tech,
                wire=self.wire,
            )
        assert self.retention_level is not None
        return STTDataArrayModel(
            capacity_bytes=self.capacity_bytes,
            line_size_bytes=self.line_size_bytes,
            level=self.retention_level,
            tech=self.tech,
            wire=self.wire,
            ewt=self.ewt,
        )

    # --- per-operation energies --------------------------------------------

    @cached_property
    def tag_probe_energy(self) -> float:
        """Energy (J) of checking one set's tags."""
        return self.tag_array.read_energy

    @cached_property
    def read_hit_energy(self) -> float:
        """Energy (J) of a read hit: tag probe + line read."""
        return self.tag_probe_energy + self.data_array.read_energy

    @cached_property
    def write_hit_energy(self) -> float:
        """Energy (J) of a write hit: tag probe + line write."""
        return self.tag_probe_energy + self.data_array.write_energy

    @cached_property
    def fill_energy(self) -> float:
        """Energy (J) of installing a line: tag write + line write."""
        return self.tag_array.write_energy + self.data_array.write_energy

    @cached_property
    def data_read_energy(self) -> float:
        """Energy (J) of a data-array-only line read (migration source)."""
        return self.data_array.read_energy

    @cached_property
    def data_write_energy(self) -> float:
        """Energy (J) of a data-array-only line write (migration target)."""
        return self.data_array.write_energy

    # --- leakage / area / latency --------------------------------------------

    @cached_property
    def leakage_power(self) -> float:
        """Static power (W): tags + data."""
        return self.tag_array.leakage_power + self.data_array.leakage_power

    @cached_property
    def area(self) -> float:
        """Total footprint (m^2)."""
        return self.tag_array.area + self.data_array.area

    @cached_property
    def read_latency(self) -> float:
        """Read hit latency (s): tags and data probed in series (tag-first)."""
        if self.sram_data:
            data_latency = self.data_array.access_latency
        else:
            data_latency = self.data_array.read_latency
        return self.tag_array.access_latency + data_latency

    @cached_property
    def write_latency(self) -> float:
        """Write hit latency (s)."""
        if self.sram_data:
            data_latency = self.data_array.access_latency
        else:
            data_latency = self.data_array.write_latency
        return self.tag_array.access_latency + data_latency
