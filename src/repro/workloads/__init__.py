"""Synthetic GPGPU workloads.

The paper evaluates CUDA benchmarks from the GPGPU-Sim suite, Rodinia and
Parboil.  Without CUDA binaries or a PTX front-end, this package generates
*synthetic traces* whose statistics — working-set sizes, write fraction and
skew, rewrite-interval structure, register pressure, arithmetic intensity —
are calibrated per benchmark so the paper's characterization figures
(Figs. 3-6) and evaluation regions (Fig. 8) reproduce.  See DESIGN.md for
the substitution rationale.
"""

from repro.workloads.trace import Trace, Workload
from repro.workloads.patterns import (
    SegmentSpec,
    StreamingSegment,
    HotSegment,
    PhasedWriteSegment,
    LocalSegment,
)
from repro.workloads.generator import TraceGenerator
from repro.workloads.profiles import BenchmarkProfile, PROFILES, get_profile
from repro.workloads.suite import build_workload, suite_names

__all__ = [
    "Trace",
    "Workload",
    "SegmentSpec",
    "StreamingSegment",
    "HotSegment",
    "PhasedWriteSegment",
    "LocalSegment",
    "TraceGenerator",
    "BenchmarkProfile",
    "PROFILES",
    "get_profile",
    "build_workload",
    "suite_names",
]
