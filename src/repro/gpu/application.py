"""Multi-kernel applications.

"A GPU application comprises of one or more kernels ... most GPGPU
applications are divided into grids which run sequentially; each grid uses
the results of the previous grid."  This module runs a *sequence* of
kernels against one persistent memory hierarchy: the L2 (contents,
retention clocks, energy ledger) survives across kernels, occupancy is
recomputed per kernel, and the application-level result aggregates IPC and
power over the whole sequence.

The inter-kernel reuse this enables (a producer kernel's output lines still
resident when the consumer starts) is precisely the behaviour the paper
leans on when it argues that end-of-grid writes need not stay in the LR
part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.config import GPUConfig
from repro.core.factory import build_l2
from repro.core.interface import L2Interface
from repro.errors import SimulationError
from repro.gpu.metrics import SimulationResult
from repro.gpu.simulator import GPUSimulator
from repro.workloads.trace import Workload


@dataclass(frozen=True)
class ApplicationResult:
    """Aggregate of one application (kernel sequence) on one configuration.

    Attributes
    ----------
    config:
        Configuration name.
    core_clock_hz:
        Core clock used to express aggregate IPC in per-cycle terms.
    kernels:
        Per-kernel simulation results, in execution order.  Each kernel's
        energy/power figures cover only that kernel (the shared ledger is
        snapshotted between kernels).
    """

    config: str
    core_clock_hz: float
    kernels: List[SimulationResult]

    @property
    def total_time_s(self) -> float:
        """Sum of per-kernel execution times."""
        return sum(k.sim_time_s for k in self.kernels)

    @property
    def total_warp_insts(self) -> float:
        """Work across all kernels."""
        return sum(k.total_warp_insts for k in self.kernels)

    @property
    def aggregate_ipc(self) -> float:
        """Whole-application IPC (thread instructions per core cycle)."""
        if self.total_time_s == 0:
            return 0.0
        warp_rate = self.total_warp_insts / self.total_time_s
        return 32.0 * warp_rate / self.core_clock_hz

    @property
    def l2_dynamic_energy_j(self) -> float:
        """Total L2 dynamic energy over the application."""
        return sum(k.l2_dynamic_energy_j for k in self.kernels)

    @property
    def l2_total_power_w(self) -> float:
        """Application-average L2 power (dynamic + leakage)."""
        if self.total_time_s == 0:
            return 0.0
        return (
            self.l2_dynamic_energy_j / self.total_time_s
            + self.kernels[-1].l2_leakage_power_w
        )

    def speedup_over(self, baseline: "ApplicationResult") -> float:
        """Execution-time ratio vs a baseline run of the same application."""
        if self.total_time_s == 0:
            raise SimulationError("application has zero execution time")
        return baseline.total_time_s / self.total_time_s


def run_application(
    config: GPUConfig,
    kernels: Sequence[Workload],
) -> ApplicationResult:
    """Run a kernel sequence with a persistent L2.

    The L2 instance carries over between kernels — including its retention
    clocks, which keep advancing monotonically across kernel boundaries.
    L1s restart cold each kernel (a new grid's CTAs start fresh).
    """
    if not kernels:
        raise SimulationError("an application needs at least one kernel")
    l2: L2Interface = build_l2(config.l2, tech=config.tech)
    results: List[SimulationResult] = []
    start_time = 0.0
    for workload in kernels:
        simulator = GPUSimulator(config, workload, l2=l2, start_time_s=start_time)
        results.append(simulator.run())
        start_time = simulator.end_time_s
    return ApplicationResult(
        config=config.name,
        core_clock_hz=config.core_clock_hz,
        kernels=results,
    )
