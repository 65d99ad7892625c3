"""repro — a reproduction of "An Efficient STT-RAM Last Level Cache
Architecture for GPUs" (Samavatian et al., DAC 2014).

The package implements the paper's two-part (low-retention + high-retention)
STT-RAM L2 cache for GPUs together with every substrate its evaluation
needs: the MTJ device model, a CACTI-like area/power model, a behavioural
cache framework, a trace-driven GPU simulator with an analytical IPC model,
and calibrated synthetic GPGPU workloads.  ``repro.experiments`` regenerates
every table and figure of the paper.

Quick start::

    from repro import config_c1, baseline_sram, build_workload, simulate

    workload = build_workload("bfs", num_accesses=20_000)
    base = simulate(baseline_sram(), workload)
    c1 = simulate(config_c1(), workload)
    print(c1.speedup_over(base), c1.total_power_ratio(base))

See README.md for the architecture overview and DESIGN.md for the full
system inventory.
"""

from repro.config import (
    GPUConfig,
    L1Config,
    L2Config,
    L2PartConfig,
    all_configs,
    baseline_sram,
    baseline_stt,
    config_c1,
    config_c2,
    config_c3,
)
from repro.core import TwoPartSTTL2, UniformL2, build_l2
from repro.gpu import GPUSimulator, SimulationResult, simulate
from repro.sttram import RetentionLevel, retention_catalogue
from repro.workloads import Workload, build_workload, suite_names

__version__ = "1.0.0"

__all__ = [
    "GPUConfig",
    "L1Config",
    "L2Config",
    "L2PartConfig",
    "all_configs",
    "baseline_sram",
    "baseline_stt",
    "config_c1",
    "config_c2",
    "config_c3",
    "TwoPartSTTL2",
    "UniformL2",
    "build_l2",
    "GPUSimulator",
    "SimulationResult",
    "simulate",
    "RetentionLevel",
    "retention_catalogue",
    "Workload",
    "build_workload",
    "suite_names",
    "__version__",
]
