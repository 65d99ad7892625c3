"""Workload/cache characterization analyses (the paper's section 4)."""

from repro.analysis.cov import WriteVariation, write_variation
from repro.analysis.wws import WWSWindow, weighted_wws_fraction, write_working_set
from repro.analysis.intervals import (
    REWRITE_BUCKETS,
    THRESHOLD_SNAP_REL_TOL,
    RewriteDistribution,
    rewrite_interval_distribution,
    snap_threshold,
)
from repro.analysis.lifetime import (
    DEFAULT_ENDURANCE_WRITES,
    LifetimeReport,
    lifetime_report,
    relative_lifetime,
)
from repro.analysis.tables import format_table

__all__ = [
    "WriteVariation",
    "write_variation",
    "WWSWindow",
    "weighted_wws_fraction",
    "write_working_set",
    "REWRITE_BUCKETS",
    "THRESHOLD_SNAP_REL_TOL",
    "RewriteDistribution",
    "rewrite_interval_distribution",
    "snap_threshold",
    "DEFAULT_ENDURANCE_WRITES",
    "LifetimeReport",
    "lifetime_report",
    "relative_lifetime",
    "format_table",
]
