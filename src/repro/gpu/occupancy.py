"""SM occupancy: how many warps fit, and what limits them.

CTAs are allocated to an SM whole ("thread blocks are allocated as a single
unit of work to a SM"), so every resource constraint rounds *down* to block
granularity.  This is why the paper sees some register-limited benchmarks
gain nothing from C2/C3's larger file: the extra registers are real but not
enough for one more whole CTA.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import GPUConfig
from repro.errors import ConfigurationError
from repro.gpu.kernel import KernelDescriptor


@dataclass(frozen=True)
class OccupancyResult:
    """Occupancy of one kernel on one SM configuration.

    Attributes
    ----------
    blocks_per_sm / warps_per_sm:
        Resident CTAs and warps.
    limiter:
        Which resource bound occupancy: ``"registers"``, ``"warps"``,
        ``"blocks"`` or ``"shared_mem"``.
    """

    blocks_per_sm: int
    warps_per_sm: int
    limiter: str


def compute_occupancy(kernel: KernelDescriptor, config: GPUConfig) -> OccupancyResult:
    """Resident blocks/warps for ``kernel`` on ``config``'s SMs."""
    warps_per_block = kernel.warps_per_block(config.warp_size)

    limits = {
        "registers": config.registers_per_sm // kernel.regs_per_block(),
        "warps": config.max_warps_per_sm // warps_per_block,
        "blocks": config.max_blocks_per_sm,
    }
    if kernel.shared_mem_per_block > 0:
        limits["shared_mem"] = (
            config.shared_mem_bytes // kernel.shared_mem_per_block
        )

    limiter = min(limits, key=lambda k: limits[k])
    blocks = limits[limiter]
    if blocks < 1:
        raise ConfigurationError(
            f"kernel {kernel.name!r} does not fit on an SM: "
            f"limited by {limiter} ({limits[limiter]} blocks)"
        )
    return OccupancyResult(
        blocks_per_sm=blocks,
        warps_per_sm=blocks * warps_per_block,
        limiter=limiter,
    )
