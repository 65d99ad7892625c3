"""Per-line cache state.

:class:`CacheBlock` is the hot mutable record of the behavioural model; it
uses ``__slots__`` because simulations touch millions of them.  Beyond the
usual valid/dirty/tag, it carries the bookkeeping this paper's architecture
and characterization need:

* ``write_count`` — saturating write counter (the WWS monitor reads it);
* ``last_write_time`` — for rewrite-interval analysis (Fig. 6) and the
  retention-counter model;
* ``insert_time`` — block lifetime statistics;
* ``total_writes`` — non-saturating, for write-variation COV (Fig. 3).
"""

from __future__ import annotations


class CacheBlock:
    """One cache line's metadata (no data payload is simulated)."""

    __slots__ = (
        "tag",
        "valid",
        "dirty",
        "write_count",
        "total_writes",
        "last_write_time",
        "insert_time",
    )

    def __init__(self) -> None:
        self.tag: int = -1
        self.valid: bool = False
        self.dirty: bool = False
        self.write_count: int = 0
        self.total_writes: int = 0
        self.last_write_time: float = 0.0
        self.insert_time: float = 0.0

    def reset(self) -> None:
        """Invalidate the line and clear all bookkeeping."""
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.write_count = 0
        self.total_writes = 0
        self.last_write_time = 0.0
        self.insert_time = 0.0

    def fill(self, tag: int, now: float, dirty: bool = False) -> None:
        """Install a new line, resetting per-residency counters."""
        self.tag = tag
        self.valid = True
        self.dirty = dirty
        self.write_count = 1 if dirty else 0
        self.total_writes = 1 if dirty else 0
        self.last_write_time = now if dirty else 0.0
        self.insert_time = now

    def record_write(self, now: float, saturate_at: int = 0) -> None:
        """Account a write hit; ``saturate_at > 0`` caps ``write_count``."""
        self.dirty = True
        self.total_writes += 1
        if saturate_at <= 0 or self.write_count < saturate_at:
            self.write_count += 1
        self.last_write_time = now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "V" if self.valid else "-"
        state += "D" if self.dirty else "-"
        return f"CacheBlock(tag={self.tag:#x}, {state}, w={self.total_writes})"
