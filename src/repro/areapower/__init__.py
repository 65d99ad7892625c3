"""CACTI-6.5-like analytical area/energy/latency model.

The paper used "CACTI 6.5 slightly modified for STT-RAM" to obtain per-access
energies, leakage and area for its cache configurations.  This subpackage
provides a deliberately simplified analytical stand-in: mat-based geometry,
technology scaling, H-tree wire overheads, and separate SRAM / STT-RAM data
array models sharing an SRAM tag array (the paper keeps tags in SRAM).

Only *relative* quantities enter the paper's results (the 4x density ratio,
dynamic-energy ratios between SRAM and the two STT retention levels, and the
leakage gap), so the model is calibrated to published CACTI outputs rather
than derived from layout.
"""

from repro.areapower.technology import TechnologyNode, TECH_40NM, TECH_32NM, TECH_45NM
from repro.areapower.wire import WireModel
from repro.areapower.sram import SRAMArrayModel
from repro.areapower.sttram_array import STTDataArrayModel
from repro.areapower.cache_model import CacheEnergyModel
from repro.areapower.partitioned import (
    Organization,
    explore,
    optimal_organization,
)

__all__ = [
    "TechnologyNode",
    "TECH_40NM",
    "TECH_32NM",
    "TECH_45NM",
    "WireModel",
    "SRAMArrayModel",
    "STTDataArrayModel",
    "CacheEnergyModel",
    "Organization",
    "explore",
    "optimal_organization",
]
