"""GPU platform substrate.

Everything the paper's evaluation needs around the L2: SM occupancy (driven
by the register file, the C2/C3 lever), GPU-specific L1 write policies, the
butterfly interconnect, DRAM channels, and the trace-driven simulator that
ties them together and produces IPC/power numbers.
"""

from repro.gpu.kernel import KernelDescriptor
from repro.gpu.occupancy import OccupancyResult, compute_occupancy
from repro.gpu.regfile import RegisterFile
from repro.gpu.l1 import GPUL1Cache, L2Request
from repro.gpu.interconnect import ButterflyNoC
from repro.gpu.dram import DRAMModel
from repro.gpu.metrics import SimulationResult
from repro.gpu.simulator import GPUSimulator, simulate
from repro.gpu.application import (
    ApplicationResult,
    run_application,
)

__all__ = [
    "KernelDescriptor",
    "OccupancyResult",
    "compute_occupancy",
    "RegisterFile",
    "GPUL1Cache",
    "L2Request",
    "ButterflyNoC",
    "DRAMModel",
    "SimulationResult",
    "GPUSimulator",
    "simulate",
    "ApplicationResult",
    "run_application",
]
