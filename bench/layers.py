"""Per-layer measurement from outside the program.

Nothing in ``src/`` is edited.  A :class:`LayerTrace` times calls into each
layer's public functions by installing wrappers on component *instances*
(or, for module-level functions, on the module attribute the callers look
up) and removes every wrapper again with :meth:`LayerTrace.restore`.

* Per-call wrappers (``wrap``) only add to in-memory counters: calls, total
  time, self time, and an optional item count.  A wrapped call nested
  inside another is subtracted from the outer layer's self time.
* Coarse calls (``timed``) also record a full span: name, start, end,
  parent and request id.  All spans and layer totals are written once, at
  exit, as Chrome trace-event JSON (``write_chrome_trace``).

Wrapped calls are counted on one thread at a time; spans may come from any
thread through ``add_span``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Cell indices of one layer's counters.
CALLS, TOTAL_S, SELF_S, ITEMS = range(4)


class LayerTrace:
    """Layer counters, coarse spans and the wrappers that feed them."""

    def __init__(self) -> None:
        #: layer -> [calls, total_s, self_s, items]
        self.layers: Dict[str, List[float]] = {}
        #: (name, start, end, parent, request, thread id)
        self.spans: List[tuple] = []
        self._child_s: List[float] = []
        self._open: List[str] = []
        self._patched: List[tuple] = []
        self._origin = time.perf_counter()

    def cell(self, layer: str) -> List[float]:
        """The counter cell of ``layer`` (created empty on first use)."""
        cell = self.layers.get(layer)
        if cell is None:
            cell = self.layers[layer] = [0, 0.0, 0.0, 0]
        return cell

    def value(self, layer: str, index: int) -> float:
        """One counter of ``layer``; 0 for a layer never entered."""
        cell = self.layers.get(layer)
        return cell[index] if cell is not None else 0

    # --- wrappers ------------------------------------------------------

    def wrapped(
        self, function: Callable, layer: str,
        items: Optional[Callable[[Any], int]] = None,
    ) -> Callable:
        """``function`` wrapped to count into ``layer`` (no span)."""
        cell = self.cell(layer)
        child_s = self._child_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child_s.append(0.0)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_s.pop()
                cell[CALLS] += 1
                cell[TOTAL_S] += elapsed
                cell[SELF_S] += elapsed - inner
                if child_s:
                    child_s[-1] += elapsed
            if items is not None:
                cell[ITEMS] += items(result)
            return result

        return wrapper

    def patch(self, owner: Any, name: str, replacement: Any) -> None:
        """Set ``owner.name``; :meth:`restore` puts the old binding back."""
        own = vars(owner)
        self._patched.append((owner, name, name in own, own.get(name)))
        setattr(owner, name, replacement)

    def wrap(
        self, owner: Any, name: str, layer: str,
        items: Optional[Callable[[Any], int]] = None,
    ) -> None:
        """Wrap the instance method or module function ``owner.name``."""
        self.patch(owner, name, self.wrapped(getattr(owner, name), layer, items))

    def restore(self, keep: int = 0) -> None:
        """Undo :meth:`patch` / :meth:`wrap` calls, newest first, down to ``keep``."""
        while len(self._patched) > keep:
            owner, name, had_own, previous = self._patched.pop()
            if had_own:
                setattr(owner, name, previous)
            else:
                delattr(owner, name)

    @contextmanager
    def patches(self):
        """Scope in which every patch made is undone on exit."""
        keep = len(self._patched)
        try:
            yield
        finally:
            self.restore(keep)

    # --- spans ---------------------------------------------------------

    @contextmanager
    def timed(self, layer: str, items: int = 0):
        """Count a coarse call into ``layer`` and record its span."""
        cell = self.cell(layer)
        parent = self._open[-1] if self._open else None
        self._open.append(layer)
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            elapsed = end - start
            inner = self._child_s.pop()
            self._open.pop()
            cell[CALLS] += 1
            cell[TOTAL_S] += elapsed
            cell[SELF_S] += elapsed - inner
            cell[ITEMS] += items
            if self._child_s:
                self._child_s[-1] += elapsed
            self.add_span(layer, start, end, parent)

    def add_span(
        self, name: str, start: float, end: float,
        parent: Optional[str] = None, request: Any = None,
    ) -> None:
        """Record one span (``perf_counter`` times); safe from any thread."""
        self.spans.append(
            (name, start, end, parent, request, threading.get_ident())
        )

    def write_chrome_trace(self, path: Path, metadata: Dict[str, Any]) -> None:
        """Write spans and layer totals as Chrome trace-event JSON."""
        pid = os.getpid()
        threads = {tid: n for n, tid in enumerate(sorted({s[5] for s in self.spans}))}
        events = [
            {
                "name": name, "ph": "X", "pid": pid, "tid": threads[tid],
                "ts": (start - self._origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"parent": parent, "request": request},
            }
            for name, start, end, parent, request, tid in self.spans
        ]
        layers = {
            layer: {"calls": c[CALLS], "total_s": c[TOTAL_S],
                    "self_s": c[SELF_S], "items": c[ITEMS]}
            for layer, c in sorted(self.layers.items())
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {**metadata, "layers": layers},
        }))


# --- the engine layer ---------------------------------------------------


def probe_engine(trace: LayerTrace) -> None:
    """Time every simulator built through ``repro.engine.make_simulator``.

    Construction counts into ``engine.construct``, ``run()`` into
    ``engine.replay`` (items: accesses replayed) and a SoA two-part L2's
    ``maintenance`` into ``engine.maintenance`` — the fused loop calls it
    only when a refresh sweep is due.  Sharded front ends replay in worker
    processes and are only timed for construction.  The per-simulator
    wrappers remove themselves when ``run()`` returns; ``trace.restore()``
    removes the probe (use it inside ``trace.patches()``).
    """
    import repro.engine as engine
    from repro.engine.soa_l2 import SoaTwoPartL2
    from repro.shard import ShardedGPUSimulator

    original = engine.make_simulator

    def make_simulator(*args, **kwargs):
        with trace.timed("engine.construct"):
            sim = original(*args, **kwargs)
        if not isinstance(sim, ShardedGPUSimulator):
            _probe_run(trace, sim, isinstance(sim.l2, SoaTwoPartL2))
        return sim

    trace.patch(engine, "make_simulator", make_simulator)


def _probe_run(trace: LayerTrace, sim, soa_twopart: bool) -> None:
    run = sim.run
    l2 = sim.l2

    def probed_run():
        # the fused loop binds l2.maintenance when run() starts
        if soa_twopart:
            l2.maintenance = trace.wrapped(l2.maintenance, "engine.maintenance")
        try:
            with trace.timed("engine.replay", items=len(sim.workload.trace)):
                return run()
        finally:
            del sim.run
            if soa_twopart:
                del l2.maintenance

    sim.run = probed_run


def engine_metrics(trace: LayerTrace, ops: int) -> Dict[str, float]:
    """``engine.*`` per operation, from a trace that ran :func:`probe_engine`."""
    replay_s = trace.value("engine.replay", TOTAL_S)
    accesses = trace.value("engine.replay", ITEMS)
    return {
        "engine.construct_s": trace.value("engine.construct", TOTAL_S) / ops,
        "engine.replay_s": replay_s / ops,
        "engine.s_per_access": replay_s / accesses if accesses else 0.0,
        "engine.maintenance_s": trace.value("engine.maintenance", TOTAL_S) / ops,
        "engine.maintenance_calls": trace.value("engine.maintenance", CALLS) / ops,
        "engine.loop_s": trace.value("engine.replay", SELF_S) / ops,
    }


# --- the object engine's component split --------------------------------


def wrap_components(trace: LayerTrace, sim) -> None:
    """Wrap the public per-access methods of an object-engine simulator."""
    for l1 in sim.l1s:
        trace.wrap(l1, "access", "gpu.l1")
        trace.wrap(l1, "complete_fetch", "gpu.l1.fill")
    trace.wrap(sim.l2, "access", "core.l2")
    if hasattr(sim.l2, "refresh_engine"):  # two-part L2s only
        trace.wrap(sim.l2, "maintenance", "core.refresh")
        trace.wrap(sim.l2.refresh_engine, "sweep", "core.refresh.sweep")
    trace.wrap(sim.banks, "schedule", "cache.banked")
    trace.wrap(sim.dram, "access", "gpu.dram")
    trace.wrap(sim.dram, "write_back", "gpu.dram.writeback")


#: Simulated counts the split sums over traces to derive its rates.
_SPLIT_COUNTS = (
    "accesses", "l1_hits", "l1_accesses", "l2_requests", "l2_hits",
    "l2_accesses", "migrations", "lr_writes", "data_writes",
    "refresh_writes", "bank_requests", "bank_conflicts", "dram_reads",
    "dram_row_hits",
)


class ObjectSplit:
    """Per-component self time of the object engine, summed over traces.

    Each trace replays twice on the reference ``object`` engine: once
    plain (the tracing-overhead baseline) and once with every component's
    public per-access method wrapped.  Both results must match the digest
    of the untraced ``soa`` run of the same trace.  The traced run's own
    self time, outside every wrapped call, is the simulator's glue.
    """

    def __init__(self, trace: LayerTrace) -> None:
        self.trace = trace
        self.plain_s = 0.0
        self.counts = dict.fromkeys(_SPLIT_COUNTS, 0)

    def add(self, config, workload, soa_digest: str) -> bool:
        """Split one trace; returns whether both digests equal ``soa_digest``."""
        from repro.benchmarks import result_digest
        from repro.engine import make_simulator

        sim = make_simulator(config, workload, engine="object")
        start = time.perf_counter()
        plain = sim.run()
        self.plain_s += time.perf_counter() - start

        sim = make_simulator(config, workload, engine="object")
        with self.trace.patches():
            wrap_components(self.trace, sim)
            with self.trace.timed("gpu.simulator"):
                result = sim.run()
        self._count(sim, result)
        return result_digest(plain) == soa_digest == result_digest(result)

    def _count(self, sim, result) -> None:
        l2 = sim.l2
        twopart = hasattr(l2, "refresh_engine")
        add = {
            "accesses": len(sim.workload.trace),
            "l1_hits": sum(l1.array.stats.hits for l1 in sim.l1s),
            "l1_accesses": sum(l1.array.stats.accesses for l1 in sim.l1s),
            "l2_requests": result.l2_requests,
            "l2_hits": l2.stats.hits,
            "l2_accesses": l2.stats.accesses,
            "migrations": result.migrations_to_lr or 0,
            "lr_writes": l2.lr_data_writes if twopart else 0,
            "data_writes": l2.total_data_writes if twopart else 0,
            "refresh_writes": result.refresh_writes or 0,
            "bank_requests": sim.banks.stats.requests,
            "bank_conflicts": sim.banks.stats.conflicts,
            "dram_reads": sim.dram.stats.reads,
            "dram_row_hits": sim.dram.stats.row_hits,
        }
        for key, value in add.items():
            self.counts[key] += value

    def metrics(self) -> Dict[str, float]:
        """The ``gpu.*``, ``core.*``, ``cache.*`` and ``trace.*`` layer metrics."""
        t = self.trace
        c = self.counts
        traced_s = t.value("gpu.simulator", TOTAL_S)

        def ratio(a: str, b: str) -> float:
            return c[a] / c[b] if c[b] else 0.0

        def self_s(*layers: str) -> float:
            return sum(t.value(layer, SELF_S) for layer in layers)

        return {
            "gpu.l1.self_s": self_s("gpu.l1", "gpu.l1.fill"),
            "gpu.l1.calls": t.value("gpu.l1", CALLS),
            "gpu.l1.hit_rate": ratio("l1_hits", "l1_accesses"),
            "gpu.l1.l2_requests_per_access": ratio("l2_requests", "accesses"),
            "core.l2.self_s": self_s("core.l2"),
            "core.l2.calls": t.value("core.l2", CALLS),
            "core.l2.hit_rate": ratio("l2_hits", "l2_accesses"),
            "core.l2.migrations": c["migrations"],
            "core.l2.lr_write_share": ratio("lr_writes", "data_writes"),
            "core.refresh.self_s": self_s("core.refresh", "core.refresh.sweep"),
            "core.refresh.sweeps": t.value("core.refresh.sweep", CALLS),
            "core.refresh.refresh_writes": c["refresh_writes"],
            "cache.banked.self_s": self_s("cache.banked"),
            "cache.banked.conflict_rate": ratio("bank_conflicts", "bank_requests"),
            "gpu.dram.self_s": self_s("gpu.dram", "gpu.dram.writeback"),
            "gpu.dram.calls": t.value("gpu.dram", CALLS)
            + t.value("gpu.dram.writeback", CALLS),
            "gpu.dram.row_hit_rate": ratio("dram_row_hits", "dram_reads"),
            "gpu.simulator.glue_s": self_s("gpu.simulator"),
            "trace.overhead_pct": (
                (traced_s - self.plain_s) / self.plain_s * 100.0
                if self.plain_s else 0.0
            ),
        }


# --- the sharded engine's stages -----------------------------------------


def shard_split(trace: LayerTrace, config, workload, shards: int):
    """Run the sharded engine's stages in process, each timed.

    Mirrors ``ShardedGPUSimulator.run`` through the public
    ``partition_trace``, ``run_bank_job`` and ``merge_bank_payloads``, but
    runs the bank jobs one after another in this process, so their times
    carry no pool overhead.  Returns ``(merged result, payloads,
    per-job seconds)``.
    """
    from repro.shard import (
        BankJob, idle_payload, merge_bank_payloads, partition_trace,
        plan_shards, run_bank_job,
    )

    plan = plan_shards(config, shards)
    with trace.timed("shard.partition"):
        subs = partition_trace(workload.trace, plan.line_size, plan.shards)
    payloads, job_s = [], []
    for shard, sub in enumerate(subs):
        if sub is None:
            payloads.append(idle_payload(shard, plan.shards, plan.sub_config))
            continue
        job = BankJob(
            shard=shard, shards=plan.shards, config=plan.sub_config,
            workload=replace(workload, trace=sub),
        )
        start = time.perf_counter()
        with trace.timed("shard.worker", items=len(sub)):
            payloads.append(run_bank_job(job))
        job_s.append(time.perf_counter() - start)
    payloads.sort(key=lambda payload: payload["shard"])
    with trace.timed("shard.merge"):
        merged = merge_bank_payloads(config, workload, payloads)
    return merged, payloads, job_s
