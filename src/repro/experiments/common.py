"""Shared experiment plumbing."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.analysis.tables import format_table
from repro.cache.address import AddressMapper
from repro.config import GPUConfig, baseline_sram
from repro.errors import SimulationError
from repro.gpu.simulator import TIME_DILATION
from repro.workloads.trace import FLAG_LOCAL, FLAG_WRITE, Workload

#: Default trace length for experiment harnesses (benches); tests shrink it.
DEFAULT_TRACE_LENGTH = 25_000


@dataclass
class ExperimentResult:
    """A named table of results plus free-form aggregates.

    ``headers``/``rows`` render the paper artifact; ``extras`` carries the
    aggregate numbers tests and EXPERIMENTS.md assert on.
    """

    name: str
    headers: List[str]
    rows: List[List]
    extras: Dict[str, float] = field(default_factory=dict)

    def render(self, precision: int = 3) -> str:
        """Human-readable table, titled."""
        table = format_table(self.headers, self.rows, precision=precision)
        extras = ""
        if self.extras:
            parts = ", ".join(f"{k}={v:.4g}" for k, v in sorted(self.extras.items()))
            extras = f"\n[{parts}]"
        return f"== {self.name} ==\n{table}{extras}"

    def column(self, header: str) -> List:
        """Extract one column by header name."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def render_bars(self, columns: Optional[Sequence[str]] = None,
                    reference: Optional[float] = 1.0) -> str:
        """ASCII bar charts for numeric columns (figure-like view).

        ``columns`` selects headers to plot (default: every column whose
        cells are all numeric).  Rows with non-numeric cells in a plotted
        column (e.g. the trailing Gmean marker "-") are skipped per column.
        """
        from repro.analysis.plot import bars_for_columns

        if columns is None:
            columns = [
                header for i, header in enumerate(self.headers[1:], start=1)
                if any(isinstance(row[i], (int, float)) for row in self.rows)
            ]
        blocks = []
        for header in columns:
            index = self.headers.index(header)
            labels, values = [], []
            for row in self.rows:
                cell = row[index]
                if isinstance(cell, (int, float)):
                    labels.append(str(row[0]))
                    values.append(float(cell))
            if labels:
                blocks.append(
                    bars_for_columns(labels, header, values, reference=reference)
                )
        return "\n\n".join(blocks)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper reports Gmean across benchmarks)."""
    values = list(values)
    if not values:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def replay_through_l1(
    workload: Workload,
    l2_access: Callable[[int, bool, float], object],
    config: Optional[GPUConfig] = None,
    time_dilation: float = TIME_DILATION,
) -> None:
    """Replay a trace through per-SM L1s, forwarding L2 traffic to a callback.

    Used by the characterization experiments (Figs. 3-6, the energy
    breakdown and the surrogate's features), which need the L1-filtered L2
    access stream but not the full timing/power roll-up.
    ``l2_access(address, is_write, now)`` is called per L2 request, in
    order; its return value is ignored.  ``now`` runs on the dilated
    (sampled-trace) timebase, matching what the full simulator hands the
    L2 — see :data:`repro.gpu.simulator.TIME_DILATION`.

    The L1s apply the paper's write policies (:mod:`repro.gpu.l1`) with
    fills landing at once: a global store is written through and evicts
    any L1 copy; a global read or any local access allocates on a miss
    (LRU, invalid ways first), a dirty victim is written back before the
    fetch, and a local store dirties its line.  This filter differs from
    the simulators' L1 (:class:`repro.gpu.l1.GPUL1Cache` and the fused
    loop) in one way only: it has no MSHR file, so a miss never coalesces
    onto an in-flight fetch.  State is one ``line -> dirty`` dict per
    (SM, set) whose insertion order is the LRU order (LRU first), and the
    flags and line/set split are decoded by NumPy one trace chunk at a
    time (:meth:`~repro.workloads.trace.Trace.chunks`), like
    :class:`repro.engine.soa_sim.SoaGPUSimulator`.
    """
    config = config or baseline_sram()
    geometry = config.l1
    assoc = geometry.associativity
    nsets = geometry.capacity_bytes // (assoc * geometry.line_size)
    mapper = AddressMapper(line_size=geometry.line_size, num_sets=nsets)
    trace = workload.trace
    if int(trace.sm.max()) >= config.num_sms:
        raise SimulationError(
            f"trace SM id {int(trace.sm.max())} exceeds configured "
            f"{config.num_sms} SMs"
        )

    def decoded_chunks():
        for sms, addresses, flags in trace.chunks():
            lines, _, set_indices = mapper.split_columns(addresses)
            yield zip(
                sms.tolist(),
                ((flags & FLAG_WRITE) != 0).tolist(),
                ((flags & FLAG_LOCAL) != 0).tolist(),
                lines.tolist(),
                set_indices.tolist(),
            )

    # per-(SM, set) line -> dirty maps, LRU first
    sets = [dict() for _ in range(config.num_sms * nsets)]

    cycle_s = 1.0 / config.core_clock_hz
    dt = (
        workload.kernel.compute_intensity * cycle_s / config.num_sms * time_dilation
    )
    now = 0.0
    for sm, is_write, is_local, line, set_index in chain.from_iterable(
        decoded_chunks()
    ):
        now += dt
        resident = sets[sm * nsets + set_index]
        if is_write and not is_local:
            # global store: write-evict on a hit, write-no-allocate on a miss
            resident.pop(line, None)
            l2_access(line, True, now)
            continue
        dirty = resident.pop(line, None)
        if dirty is not None:
            resident[line] = dirty or is_write
            continue
        if len(resident) >= assoc:
            victim = next(iter(resident))
            if resident.pop(victim):
                l2_access(victim, True, now)
        resident[line] = is_write
        l2_access(line, False, now)
