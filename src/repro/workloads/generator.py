"""Synthetic trace generator.

Turns a :class:`~repro.workloads.profiles.BenchmarkProfile` into a
:class:`~repro.workloads.trace.Trace`: a time-ordered stream of (SM,
address, read/write, global/local) records at L1-line (128 B) granularity.

Structure of a generated trace:

* every access draws a *kind* from the profile's mix (streaming read/write,
  hot-data read, WWS write/read, local read/write);
* the trace is divided into *phases* (the paper's grids); the WWS hot set
  re-randomizes each phase, and the tail of each phase is an optional burst
  of sequential output writes ("grids have a small amount of writes
  happening usually at the end of their execution");
* address regions are disjoint per segment, local data is additionally
  partitioned per SM.

Draw order.  One seeded random stream feeds the whole trace, consumed in
this order: every record's kind, every record's SM, then each kind's line
draws, kind by kind in :data:`_KINDS` order, each in trace order (the WWS
phase by phase).  The generator walks the trace
:data:`~repro.workloads.trace.CHUNK_RECORDS` records at a time, so besides
the trace's own columns it holds only chunk-sized arrays (and the local
draws): each record's one-byte kind code is kept in what becomes the
flags column.  Splitting a draw is safe only where the stream does
not notice: a categorical draw (:meth:`numpy.random.Generator.choice` with
``p``) takes one double per record, so the kind, hot and WWS draws split
freely.  The SM draw is one call, because bounded 16-bit draws buffer
random halves within a call, and the local draws are one call per kind
(see :class:`~repro.workloads.patterns.LocalSegment`).  The trace is
therefore the same whatever the chunk size.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads import trace as trace_module
from repro.workloads.patterns import (
    HotSegment,
    LocalSegment,
    PhasedWriteSegment,
    StreamingSegment,
)
from repro.workloads.trace import FLAG_LOCAL, FLAG_WRITE, Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.workloads.profiles import BenchmarkProfile

#: L1-line granularity of generated addresses.
ACCESS_GRANULARITY = 128

#: Disjoint address regions (1 GB apart).
REGION_STRIDE = 1 << 30
STREAM_BASE = 0 * REGION_STRIDE
HOT_BASE = 1 * REGION_STRIDE
WWS_BASE = 2 * REGION_STRIDE
LOCAL_BASE = 3 * REGION_STRIDE
OUTPUT_BASE = 4 * REGION_STRIDE

#: Segment sizes in lines (every profile shares them): the streaming range
#: and the output-burst range wrap after this many lines; each SM's local
#: data spans ``LOCAL_LINES`` lines, drawn from a sliding window of
#: ``LOCAL_WINDOW_LINES``.
STREAM_LINES = 1 << 18
OUTPUT_LINES = 4096
LOCAL_LINES = 96
LOCAL_WINDOW_LINES = 32

# access kinds for the categorical draw (codes are tuple indices), with
# the flags their records carry
_KINDS = (
    ("stream_read", 0),
    ("stream_write", FLAG_WRITE),
    ("hot_read", 0),
    ("wws_write", FLAG_WRITE),
    ("wws_read", 0),
    ("local_read", FLAG_LOCAL),
    ("local_write", FLAG_LOCAL | FLAG_WRITE),
)
_CODE = {name: code for code, (name, _) in enumerate(_KINDS)}

#: Kind code that overwrites the drawn kind of end-of-phase burst records.
_BURST = len(_KINDS)

#: Record flags by kind code, the burst code last.
_FLAGS_BY_CODE = np.array(
    [flags for _, flags in _KINDS] + [FLAG_WRITE], dtype=np.uint8
)


def _spans(start: int, stop: int) -> Iterator[Tuple[int, int]]:
    """``[start, stop)`` cut into ``(start, stop)`` pieces of at most
    :data:`~repro.workloads.trace.CHUNK_RECORDS` records."""
    chunk = trace_module.CHUNK_RECORDS
    for begin in range(start, stop, chunk):
        yield begin, min(stop, begin + chunk)


class TraceGenerator:
    """Generates traces for one profile (reusable across lengths/seeds)."""

    def __init__(self, profile: "BenchmarkProfile") -> None:
        self.profile = profile
        mix = profile.mix_vector()
        if abs(sum(mix) - 1.0) > 1e-9:
            raise ConfigurationError(
                f"{profile.name}: access mix sums to {sum(mix)}, expected 1"
            )
        self._mix = np.asarray(mix, dtype=np.float64)

    def generate(self, num_accesses: int, num_sms: int = 15, seed: int = 0) -> Trace:
        """Generate a trace of ``num_accesses`` records."""
        if num_accesses <= 0:
            raise ConfigurationError("trace length must be positive")
        if num_sms <= 0:
            raise ConfigurationError("need at least one SM")
        p = self.profile
        n = num_accesses
        rng = np.random.default_rng(seed)

        kinds = np.empty(n, dtype=np.uint8)
        for start, stop in _spans(0, n):
            kinds[start:stop] = rng.choice(len(_KINDS), size=stop - start, p=self._mix)
        sms = rng.integers(0, num_sms, size=n, dtype=np.int16)

        # the last burst_len records of every phase are output-burst writes
        phase_len = max(1, int(n * p.phase_fraction))
        burst_len = int(phase_len * p.burst_fraction)
        if burst_len:
            for phase_start in range(0, n, phase_len):
                phase_stop = phase_start + phase_len
                kinds[max(phase_start, phase_stop - burst_len):phase_stop] = _BURST

        # fresh segment state per generate() call => reproducible traces
        stream = StreamingSegment(STREAM_LINES)
        hot = HotSegment(p.hot_lines, alpha=p.hot_alpha, permutation_seed=seed + 1)
        wws = PhasedWriteSegment(p.wws_lines, alpha=p.wws_alpha,
                                 permutation_seed=seed + 2)
        local = LocalSegment(LOCAL_LINES, window_lines=LOCAL_WINDOW_LINES)
        output = StreamingSegment(OUTPUT_LINES)

        addresses = np.zeros(n, dtype=np.int64)

        def positions(code: int, start: int, stop: int) -> Iterator[np.ndarray]:
            """Trace indices of the ``code`` records in ``[start, stop)``,
            one non-empty array per chunk, in trace order."""
            for begin, end in _spans(start, stop):
                where = np.flatnonzero(kinds[begin:end] == code)
                if len(where):
                    where += begin
                    yield where

        def place(where: np.ndarray, lines: np.ndarray, base: int) -> None:
            lines *= ACCESS_GRANULARITY
            lines += base
            addresses[where] = lines

        for code, segment, base in (
            (_CODE["stream_read"], stream, STREAM_BASE),
            (_CODE["stream_write"], stream, STREAM_BASE),
            (_CODE["hot_read"], hot, HOT_BASE),
        ):
            for where in positions(code, 0, n):
                place(where, segment.draw(rng, len(where)), base)

        # --- write working set: a fresh hot set per phase ------------------
        for kind in ("wws_write", "wws_read"):
            for phase, phase_start in enumerate(range(0, n, phase_len)):
                phase_stop = min(n, phase_start + phase_len)
                for where in positions(_CODE[kind], phase_start, phase_stop):
                    wws.start_phase(phase)
                    place(where, wws.draw(rng, len(where)), WWS_BASE)

        # --- local (per-thread) data, partitioned per SM --------------------
        # LocalSegment.draw draws every window start before any offset, so a
        # split draw would reorder the stream: each kind draws in one call.
        for kind in ("local_read", "local_write"):
            chunks = list(positions(_CODE[kind], 0, n))
            if chunks:
                where = np.concatenate(chunks)
                del chunks
                lines = local.draw(rng, len(where))
                sm_base = sms[where].astype(np.int64)
                sm_base *= LOCAL_LINES
                lines += sm_base
                place(where, lines, LOCAL_BASE)

        # --- end-of-phase output bursts ------------------------------------
        for where in positions(_BURST, 0, n):
            place(where, output.draw(rng, len(where)), OUTPUT_BASE)

        # the kind column becomes the flags column, in place
        for start, stop in _spans(0, n):
            kinds[start:stop] = _FLAGS_BY_CODE[kinds[start:stop]]
        return Trace(sms, addresses, kinds)
