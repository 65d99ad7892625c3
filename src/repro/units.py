"""Unit constants and small conversion helpers.

All internal quantities in :mod:`repro` use a single base unit per dimension:

========== ============ ==========================================
dimension  base unit    notes
========== ============ ==========================================
time       second       latencies are often carried in *cycles*
                        (a cycle count over the clock in hertz)
energy     joule        per-access energies are tiny; use ``nJ``
                        and ``pJ`` constants for readability
power      watt
area       square metre ``MM2`` / ``UM2`` helpers for readability
capacity   byte
frequency  hertz
current    ampere
voltage    volt
========== ============ ==========================================

Keeping the base units fixed means no function needs a ``unit=`` argument and
cross-module arithmetic (energy = power x time) is always dimensionally safe.
"""

from __future__ import annotations

# --- time -----------------------------------------------------------------
SECOND = 1.0
MS = 1e-3
US = 1e-6
NS = 1e-9
PS = 1e-12
MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0
YEAR = 365.25 * DAY

# --- energy ---------------------------------------------------------------
JOULE = 1.0
MJ = 1e-3
UJ = 1e-6
NJ = 1e-9
PJ = 1e-12
FJ = 1e-15

# --- power ----------------------------------------------------------------
WATT = 1.0
MW = 1e-3
UW = 1e-6
NW = 1e-9

# --- area -----------------------------------------------------------------
M2 = 1.0
MM2 = 1e-6
UM2 = 1e-12
NM2 = 1e-18

# --- capacity -------------------------------------------------------------
BYTE = 1
KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024

# --- frequency ------------------------------------------------------------
HZ = 1.0
KHZ = 1e3
MHZ = 1e6
GHZ = 1e9

# --- electrical -----------------------------------------------------------
VOLT = 1.0
AMPERE = 1.0
UA = 1e-6
MA = 1e-3


def format_time(seconds: float) -> str:
    """Render a duration with an auto-selected engineering unit."""
    if seconds < 0:
        return "-" + format_time(-seconds)
    for unit, scale in (("s", SECOND), ("ms", MS), ("us", US), ("ns", NS)):
        if seconds >= scale:
            return f"{seconds / scale:.3g}{unit}"
    return f"{seconds / PS:.3g}ps"


def format_energy(joules: float) -> str:
    """Render an energy with an auto-selected engineering unit."""
    if joules < 0:
        return "-" + format_energy(-joules)
    for unit, scale in (("J", JOULE), ("mJ", MJ), ("uJ", UJ), ("nJ", NJ), ("pJ", PJ)):
        if joules >= scale:
            return f"{joules / scale:.3g}{unit}"
    return f"{joules / FJ:.3g}fJ"


def format_capacity(nbytes: int) -> str:
    """Render a byte count as B/KB/MB/GB (powers of 1024)."""
    if nbytes < 0:
        raise ValueError(f"capacity must be non-negative, got {nbytes}")
    for unit, scale in (("GB", GB), ("MB", MB), ("KB", KB)):
        if nbytes >= scale and nbytes % (scale // 64 or 1) == 0:
            value = nbytes / scale
            if value == int(value):
                return f"{int(value)}{unit}"
            return f"{value:.2f}{unit}"
    return f"{nbytes}B"


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_int(value: int) -> int:
    """Exact integer log2; raises for non powers of two."""
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1
