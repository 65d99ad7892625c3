"""Trace containers.

A trace is a time-ordered stream of L1-level memory accesses, column-stored
in numpy arrays (SM id, byte address, flags) for compactness, 11 bytes per
access.  Replay loops iterate Python lists, which cost about ten times that,
so they decode the columns :data:`CHUNK_RECORDS` records at a time
(:meth:`Trace.chunks`): replay memory is then set by the chunk, not by the
trace length.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterator, List, Tuple

import numpy as np

from repro.errors import TraceError

if TYPE_CHECKING:  # pragma: no cover - avoids a package-level import cycle
    from repro.gpu.kernel import KernelDescriptor

FLAG_WRITE = 0x1
FLAG_LOCAL = 0x2

#: Records per decoded chunk (:meth:`Trace.chunks`).  A replay loop's
#: per-chunk lists stay under about 1 MB, while the fixed cost of the
#: chunk's NumPy calls stays far below that of replaying its records.
CHUNK_RECORDS = 8192


class Trace:
    """Column-stored access stream."""

    def __init__(self, sm: np.ndarray, address: np.ndarray, flags: np.ndarray) -> None:
        if not (len(sm) == len(address) == len(flags)):
            raise TraceError("trace columns must have equal length")
        if len(sm) == 0:
            raise TraceError("trace must contain at least one access")
        if address.min() < 0:
            raise TraceError("addresses must be non-negative")
        self.sm = np.ascontiguousarray(sm, dtype=np.int16)
        self.address = np.ascontiguousarray(address, dtype=np.int64)
        self.flags = np.ascontiguousarray(flags, dtype=np.uint8)
        known = FLAG_WRITE | FLAG_LOCAL
        if int(self.flags.max()) > known:
            index = int(np.argmax(self.flags > known))
            unknown = int(self.flags[index]) & ~known
            raise TraceError(
                f"record {index} carries unknown flag bits {unknown:#x}; "
                "a record is a read or write (0x1), global or local (0x2)"
            )

    def __len__(self) -> int:
        return len(self.sm)

    @property
    def write_fraction(self) -> float:
        """Fraction of accesses that are writes."""
        return float(np.mean((self.flags & FLAG_WRITE) != 0))

    def chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``(sm, address, flags)`` column views, :data:`CHUNK_RECORDS`
        records each (the last may be shorter), in trace order."""
        chunk = CHUNK_RECORDS
        for start in range(0, len(self.sm), chunk):
            stop = start + chunk
            yield self.sm[start:stop], self.address[start:stop], self.flags[start:stop]

    def rows(self) -> Iterator[Tuple[int, int, int]]:
        """``(sm, address, flags)`` int triples in trace order, listed one
        chunk at a time (the object replay loop's input)."""
        return chain.from_iterable(
            zip(sm.tolist(), address.tolist(), flags.tolist())
            for sm, address, flags in self.chunks()
        )

    def lockstep_sequence(self, dt_s: float) -> List[Tuple[int, bool, float]]:
        """``(address, is_write, now)`` triples on a fixed ``dt_s`` grid.

        The differential oracle replays L2-bound accesses directly (no L1,
        no SM interleaving), so each trace record is stamped with a
        deterministic timestamp ``(i + 1) * dt_s``.  Choosing ``dt_s``
        close to the LR retention tick makes refresh sweeps fire between
        most consecutive accesses, which is exactly the timing pressure
        the oracle wants to diff.
        """
        if dt_s <= 0:
            raise TraceError(f"lockstep dt must be positive, got {dt_s}")
        addresses = self.address.tolist()
        writes = ((self.flags & FLAG_WRITE) != 0).tolist()
        return [
            (address, is_write, (i + 1) * dt_s)
            for i, (address, is_write) in enumerate(zip(addresses, writes))
        ]


@dataclass(frozen=True)
class Workload:
    """A kernel descriptor plus its access trace."""

    name: str
    kernel: "KernelDescriptor"
    trace: Trace

    @property
    def num_accesses(self) -> int:
        """Trace length."""
        return len(self.trace)
