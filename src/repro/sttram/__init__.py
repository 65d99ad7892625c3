"""STT-RAM device substrate.

Models the Magnetic Tunnel Junction (MTJ) physics that the paper exploits:
relaxing the thermal stability factor (Delta) shortens retention time but
also lowers the write current/pulse, trading non-volatility for write
latency/energy (Smullen et al. HPCA'11, Sun et al. MICRO'11 — the paper's
refs [12] and [14]).

Public surface:

* :class:`repro.sttram.mtj.MTJParameters` — junction-level physics.
* :class:`repro.sttram.cell.STTCell` — 1T1J bit cell (write/read energy,
  latency, area).
* :class:`repro.sttram.retention.RetentionLevel` /
  :func:`repro.sttram.retention.retention_catalogue` — the Table 1
  reconstruction (10-year / HR / LR levels).
* :mod:`repro.sttram.failure` — retention-failure statistics and refresh
  interval sizing.

The array-level roll-up lives in :mod:`repro.areapower.sttram_array`.
"""

from repro.sttram.mtj import (
    MTJParameters,
    retention_time_for_stability,
    stability_for_retention_time,
)
from repro.sttram.cell import STTCell
from repro.sttram.retention import (
    RetentionLevel,
    retention_catalogue,
    HIGH_RETENTION_SECONDS,
    HR_RETENTION_SECONDS,
    LR_RETENTION_SECONDS,
)
from repro.sttram.failure import (
    bit_failure_probability,
    block_failure_probability,
    max_refresh_interval,
)

__all__ = [
    "MTJParameters",
    "retention_time_for_stability",
    "stability_for_retention_time",
    "STTCell",
    "RetentionLevel",
    "retention_catalogue",
    "HIGH_RETENTION_SECONDS",
    "HR_RETENTION_SECONDS",
    "LR_RETENTION_SECONDS",
    "bit_failure_probability",
    "block_failure_probability",
    "max_refresh_interval",
]
