"""Per-SM register file model.

The register file is the resource C2/C3 enlarge with the area saved by the
STT-RAM L2.  For occupancy, only its capacity matters; the physical model
(SRAM area and leakage) feeds the area-exchange derivation in
:mod:`repro.config` and sanity checks in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.areapower.sram import SRAMArrayModel
from repro.areapower.technology import TECH_40NM, TechnologyNode
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RegisterFile:
    """One SM's register file.

    Attributes
    ----------
    num_registers:
        32-bit registers (32768 on the GTX480 baseline).
    tech:
        Technology node for the physical model.
    """

    num_registers: int
    tech: TechnologyNode = TECH_40NM

    def __post_init__(self) -> None:
        if self.num_registers <= 0:
            raise ConfigurationError("register count must be positive")

    @property
    def capacity_bytes(self) -> int:
        """Storage footprint in bytes."""
        return self.num_registers * 4

    def physical_model(self) -> SRAMArrayModel:
        """SRAM model of the file (128-bit banked access width)."""
        return SRAMArrayModel(
            capacity_bytes=self.capacity_bytes,
            access_bits=128,
            tech=self.tech,
        )

    @property
    def area(self) -> float:
        """Footprint (m^2)."""
        return self.physical_model().area

    @property
    def leakage_power(self) -> float:
        """Static power (W)."""
        return self.physical_model().leakage_power
