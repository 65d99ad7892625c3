"""System configuration dataclasses and the paper's Table 2 presets.

The paper evaluates five systems on a GTX480-class GPU (15 SM clusters,
40 nm, 6 memory controllers, butterfly interconnect):

=================  ==========================================================
``baseline``       SRAM L2, 384 KB 8-way 256 B lines.
``stt-baseline``   Naive STT-RAM L2 of the same *area*: 1536 KB 8-way,
                   10-year retention cells (slow, hot writes).
``C1``             The proposal at 4x capacity: 1344 KB 7-way HR + 192 KB
                   2-way LR (same area as the SRAM baseline).
``C2``             The proposal at the same *capacity* (336 KB HR + 48 KB
                   LR); the saved area buys a larger register file.
``C3``             Double-capacity proposal (672 KB HR + 96 KB LR); the
                   remaining area buys a (smaller) register-file boost.
=================  ==========================================================

Register-file sizing for C2/C3 is *derived* from the area model — the saved
L2 area divided by the SRAM cost of a register — because the corresponding
Table 2 cells are illegible in the available paper text.  The derivation is
deterministic, documented here, and tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.areapower.cache_model import CacheEnergyModel
from repro.areapower.technology import TECH_40NM, TechnologyNode
from repro.errors import ConfigurationError
from repro.sttram.retention import RetentionLevel, retention_catalogue
from repro.units import KB, MHZ, format_capacity

#: Baseline register file: 32768 x 32-bit registers per SM (GTX480).
BASELINE_REGISTERS_PER_SM = 32768

#: Round derived register counts down to a multiple of this (bank width).
REGISTER_GRANULARITY = 256


@dataclass(frozen=True)
class L1Config:
    """Per-SM L1 data cache geometry (Table 2: 16 KB 4-way 128 B lines)."""

    capacity_bytes: int = 16 * KB
    associativity: int = 4
    line_size: int = 128

    def __post_init__(self) -> None:
        if self.capacity_bytes % (self.associativity * self.line_size) != 0:
            raise ConfigurationError("L1 geometry does not factor")


@dataclass(frozen=True)
class L2PartConfig:
    """Geometry of one L2 array (the whole L2, or the HR/LR part)."""

    capacity_bytes: int
    associativity: int
    line_size: int = 256

    def __post_init__(self) -> None:
        if self.capacity_bytes % (self.associativity * self.line_size) != 0:
            raise ConfigurationError(
                f"L2 part geometry does not factor: "
                f"{self.capacity_bytes}B / {self.associativity}-way / "
                f"{self.line_size}B lines"
            )


@dataclass(frozen=True)
class L2Config:
    """The shared L2: either a uniform array or the two-part proposal.

    ``kind`` is one of ``"sram"``, ``"stt"`` (uniform 10-year STT-RAM) or
    ``"twopart"`` (the paper's HR+LR architecture).
    """

    kind: str
    main: L2PartConfig
    lr: Optional[L2PartConfig] = None
    num_banks: int = 8
    write_threshold: int = 1
    hr_retention_s: float = 40e-3
    lr_retention_s: float = 40e-6
    migration_buffer_lines: int = 20
    sequential_search: bool = True
    early_write_termination: bool = False
    lr_technology: str = "stt"

    def __post_init__(self) -> None:
        if self.kind not in ("sram", "stt", "twopart"):
            raise ConfigurationError(f"unknown L2 kind {self.kind!r}")
        if self.kind == "twopart" and self.lr is None:
            raise ConfigurationError("two-part L2 needs an LR part config")
        if self.kind != "twopart" and self.lr is not None:
            raise ConfigurationError(f"{self.kind} L2 must not have an LR part")
        if self.write_threshold < 1:
            raise ConfigurationError("write threshold must be >= 1")
        if self.migration_buffer_lines < 1:
            raise ConfigurationError("migration buffers need at least one line")
        if self.lr_technology not in ("stt", "sram"):
            raise ConfigurationError(
                f"unknown LR technology {self.lr_technology!r} (stt or sram)"
            )
        if not 0 < self.lr_retention_s < self.hr_retention_s:
            raise ConfigurationError("need 0 < LR retention < HR retention")

    @property
    def total_capacity_bytes(self) -> int:
        """Total L2 capacity across parts."""
        total = self.main.capacity_bytes
        if self.lr is not None:
            total += self.lr.capacity_bytes
        return total

    @property
    def line_size(self) -> int:
        """L2 line size (both parts always share it)."""
        return self.main.line_size


@dataclass(frozen=True)
class GPUConfig:
    """Whole-system configuration (one of the five Table 2 rows).

    Attributes mirror Table 2 of the paper; ``registers_per_sm`` is the
    per-SM 32-bit register count that the occupancy model consumes.
    """

    name: str
    l2: L2Config
    num_sms: int = 15
    warp_size: int = 32
    max_warps_per_sm: int = 48
    max_blocks_per_sm: int = 8
    core_clock_hz: float = 700 * MHZ
    registers_per_sm: int = BASELINE_REGISTERS_PER_SM
    l1: L1Config = field(default_factory=L1Config)
    shared_mem_bytes: int = 48 * KB
    num_mem_controllers: int = 6
    interconnect: str = "butterfly"
    dram_latency_s: float = 650e-9
    tech: TechnologyNode = TECH_40NM

    def __post_init__(self) -> None:
        if self.num_sms <= 0 or self.warp_size <= 0:
            raise ConfigurationError("SM and warp counts must be positive")
        if self.max_warps_per_sm <= 0 or self.max_blocks_per_sm <= 0:
            raise ConfigurationError("occupancy limits must be positive")
        if self.core_clock_hz <= 0:
            raise ConfigurationError("clock must be positive")
        if self.registers_per_sm <= 0:
            raise ConfigurationError("register file must be positive")


# --------------------------------------------------------------------------
# Area-derived register-file sizing for C2 / C3
# --------------------------------------------------------------------------

def _sram_l2_model(line_size: int = 256) -> CacheEnergyModel:
    return CacheEnergyModel(384 * KB, 8, line_size)


def _twopart_area(hr: L2PartConfig, lr: L2PartConfig, levels: Dict[str, RetentionLevel]) -> float:
    hr_model = CacheEnergyModel(
        hr.capacity_bytes, hr.associativity, hr.line_size,
        sram_data=False, retention_level=levels["hr"], extra_status_bits=2,
    )
    lr_model = CacheEnergyModel(
        lr.capacity_bytes, lr.associativity, lr.line_size,
        sram_data=False, retention_level=levels["lr"], extra_status_bits=4,
    )
    return hr_model.area + lr_model.area


def derived_register_boost(
    hr: L2PartConfig, lr: L2PartConfig, num_sms: int = 15
) -> int:
    """Extra 32-bit registers per SM bought by the L2 area saved vs SRAM.

    The saved area (SRAM baseline L2 minus the two-part STT L2) is converted
    to register-file SRAM bytes via the technology's cell area, spread across
    SMs and rounded down to :data:`REGISTER_GRANULARITY`.
    """
    levels = retention_catalogue()
    saved = _sram_l2_model().area - _twopart_area(hr, lr, levels)
    if saved <= 0:
        return 0
    # register file SRAM: bytes per m^2 at this node (incl. periphery)
    sram = _sram_l2_model()
    bytes_per_area = sram.capacity_bytes / sram.data_array.area
    extra_bytes_total = saved * bytes_per_area
    extra_regs_per_sm = int(extra_bytes_total / 4 / num_sms)
    return (extra_regs_per_sm // REGISTER_GRANULARITY) * REGISTER_GRANULARITY


# --------------------------------------------------------------------------
# Table 2 presets
# --------------------------------------------------------------------------

def baseline_sram() -> GPUConfig:
    """The SRAM baseline: 384 KB 8-way L2."""
    return GPUConfig(
        name="baseline",
        l2=L2Config(kind="sram", main=L2PartConfig(384 * KB, 8)),
    )


def baseline_stt() -> GPUConfig:
    """The naive STT-RAM baseline: same area => 4x capacity, 10-year cells."""
    return GPUConfig(
        name="stt-baseline",
        l2=L2Config(kind="stt", main=L2PartConfig(1536 * KB, 8)),
    )


def config_c1() -> GPUConfig:
    """C1: the proposal at 4x capacity (1344 KB HR + 192 KB LR)."""
    return GPUConfig(
        name="C1",
        l2=L2Config(
            kind="twopart",
            main=L2PartConfig(1344 * KB, 7),
            lr=L2PartConfig(192 * KB, 2),
        ),
    )


def config_c2() -> GPUConfig:
    """C2: same-capacity proposal; saved area enlarges the register file."""
    hr = L2PartConfig(336 * KB, 7)
    lr = L2PartConfig(48 * KB, 2)
    boost = derived_register_boost(hr, lr)
    return GPUConfig(
        name="C2",
        l2=L2Config(kind="twopart", main=hr, lr=lr),
        registers_per_sm=BASELINE_REGISTERS_PER_SM + boost,
    )


def config_c3() -> GPUConfig:
    """C3: double-capacity proposal plus a smaller register-file boost."""
    hr = L2PartConfig(672 * KB, 7)
    lr = L2PartConfig(96 * KB, 2)
    boost = derived_register_boost(hr, lr)
    return GPUConfig(
        name="C3",
        l2=L2Config(kind="twopart", main=hr, lr=lr),
        registers_per_sm=BASELINE_REGISTERS_PER_SM + boost,
    )


@lru_cache(maxsize=None)
def _table2() -> Tuple[GPUConfig, ...]:
    # built once per process: C2 and C3 each run the area model, and the
    # service validates every request against this table
    return (baseline_sram(), baseline_stt(), config_c1(), config_c2(), config_c3())


def all_configs() -> Dict[str, GPUConfig]:
    """All five Table 2 systems, keyed by name (a fresh dict per call over
    configs built once per process; the configs are frozen)."""
    return {c.name: c for c in _table2()}


def render_table2() -> str:
    """ASCII rendering of Table 2 (the five configurations)."""
    rows: List[Tuple[str, str, str]] = []
    for config in all_configs().values():
        l2 = config.l2
        if l2.kind == "twopart":
            assert l2.lr is not None
            desc = (
                f"{format_capacity(l2.main.capacity_bytes)} "
                f"{l2.main.associativity}-way HR + "
                f"{format_capacity(l2.lr.capacity_bytes)} "
                f"{l2.lr.associativity}-way LR"
            )
        else:
            desc = (
                f"{format_capacity(l2.main.capacity_bytes)} "
                f"{l2.main.associativity}-way {l2.kind.upper()}"
            )
        rows.append((config.name, desc, f"{config.registers_per_sm} regs/SM"))
    header = (
        f"{'config':<14}{'L2':<40}{'register file':<20}\n"
        f"{'-' * 14}{'-' * 40}{'-' * 20}"
    )
    shared = (
        "15 SMs, 48 warps/SM max, 700 MHz, L1D 16KB 4-way 128B, "
        "shared 48KB, 6 MCs, butterfly NoC, 40nm"
    )
    body = "\n".join(f"{n:<14}{d:<40}{r:<20}" for n, d, r in rows)
    return f"{header}\n{body}\n\ncommon: {shared}"
