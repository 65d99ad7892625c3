"""The paper's contribution: the two-part (LR/HR) STT-RAM L2 architecture.

* :class:`repro.core.twopart.TwoPartSTTL2` — the full architecture: HR and
  LR arrays, WWS monitor, migration buffers, retention counters, refresh
  engine and sequential search selector.
* :class:`repro.core.uniform.UniformL2` — SRAM and naive-STT baselines with
  the same interface, so the GPU simulator is agnostic.
* Component modules (:mod:`monitor`, :mod:`buffers`, :mod:`search`,
  :mod:`retention_counter`, :mod:`refresh`) are usable standalone for
  ablation studies.
"""

from repro.core.interface import L2AccessResult, L2Interface
from repro.core.monitor import WWSMonitor
from repro.core.buffers import MigrationBuffer
from repro.core.search import SearchSelector
from repro.core.retention_counter import RetentionCounterSpec
from repro.core.refresh import RefreshEngine
from repro.core.uniform import UniformL2
from repro.core.twopart import TwoPartSTTL2
from repro.core.factory import build_l2

__all__ = [
    "L2AccessResult",
    "L2Interface",
    "WWSMonitor",
    "MigrationBuffer",
    "SearchSelector",
    "RetentionCounterSpec",
    "RefreshEngine",
    "UniformL2",
    "TwoPartSTTL2",
    "build_l2",
]
