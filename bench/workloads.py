"""The benchmark's five workloads.

Each workload has ``setup(seed, workdir)`` (everything before the measured
window: imports, trace generation, one short warm-up, server start),
``run(seconds, trace)`` (the measured window, its correctness checks and,
when ``trace`` is a :class:`~bench.layers.LayerTrace`, the per-layer
probes) and ``close()``.  The seed drives every generated trace and the
service's request order; the program under test only sees the generated
inputs.  Sizes are constructor arguments so the tests can run every
workload tiny.

Why each workload exists is recorded in ``BENCHMARK.json`` and
``bench/README.md``.
"""

from __future__ import annotations

import hashlib
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from bench.layers import (
    ITEMS, TOTAL_S, LayerTrace, ObjectSplit, engine_metrics, probe_engine,
    shard_split,
)
from bench.stats import tail_percentile

#: Accesses per trace of the replay workloads.
REPLAY_LENGTH = 250_000
#: Accesses of the sharded workload's trace: the engine's process pool only
#: pays off from about a million accesses.
SCALE_LENGTH = 1_200_000
#: Trace length of every battery job.
BATTERY_TRACE_LENGTH = 15_000
#: Benchmarks of one battery: the first of each Fig. 8 region.  The whole
#: suite's battery takes 13-28 s, so a window would hold one of it and no
#: repeat to take the fastest of; four benchmarks give eight jobs of the
#: same size and several repeats per window.
BATTERY_BENCHMARKS = ("cfd", "lps", "backprop", "bfs")
#: Trace length of every service request.
SERVICE_TRACE_LENGTH = 8_000
#: Accesses of the short warm-up simulation every set-up ends with.
WARMUP_LENGTH = 2_000
#: At most this many failure messages are kept per run.
MAX_PROBLEMS = 20


def sha256_text(text: str) -> str:
    """Hex SHA-256 of a string."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Outcome:
    """Operations attempted and failed, metrics and digests of one run.

    An operation fails when it raises or when any check on its output
    fails; a failed check is reported against the operation it checks.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_ops: set = set()
        self.problems: List[str] = []
        #: wall seconds of each completed call (or request) in the window
        self.durations: List[float] = []
        self.window_s = 0.0
        #: operations per second at the fastest repeat (see ``best_rate``)
        self.best_ops_per_s: Optional[float] = None
        #: per-layer metrics (traced runs only)
        self.metrics: Dict[str, float] = {}
        self.details: Dict[str, Any] = {}
        #: scenario key -> result digest (compared with bench/digests.json)
        self.digests: Dict[str, str] = {}

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def attempt(self) -> int:
        """Count one operation; returns its id."""
        self.attempted += 1
        return self.attempted

    def fail(self, op: int, message: str) -> None:
        self.failed_ops.add(op)
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def check(self, op: int, ok: bool, message: str) -> None:
        if not ok:
            self.fail(op, message)

    def guarded(self, what: str, function: Callable[[], Any]) -> Any:
        """Run one probe operation; a raise is a counted failure (returns None)."""
        op = self.attempt()
        try:
            return function()
        except Exception as error:  # counted, and the run goes on
            self.fail(op, f"{what}: {type(error).__name__}: {error}")
            return None


#: ``(op id, part index, wall seconds, value)`` of one completed call.
Sample = Tuple[int, int, float, Any]


def run_window(
    seconds: float, parts: Sequence[Callable[[], Any]], outcome: Outcome,
) -> Tuple[List[Sample], float]:
    """Call the ``parts`` of one operation in turn, back to back, for ``seconds``.

    Every part runs at least once.  After that, a further call starts only
    if a call of that part's median duration so far still ends inside the
    window, so parts of many seconds do not overrun it.  Returns the
    completed calls and the window's seconds; a call that raises is a
    failed operation.  Checks run after the window, so they do not stretch
    it.
    """
    samples: List[Sample] = []
    durations: List[List[float]] = [[] for _ in parts]
    start = end = time.perf_counter()
    deadline = start + seconds
    turn = 0
    while True:
        part = turn % len(parts)
        if turn >= len(parts):
            expected = statistics.median(durations[part]) if durations[part] else 0.0
            if end + expected > deadline:
                return samples, end - start
        op_id = outcome.attempt()
        begin = time.perf_counter()
        try:
            value = parts[part]()
        except Exception as error:  # counted, and the window goes on
            outcome.fail(op_id, f"{type(error).__name__}: {error}")
        else:
            samples.append((op_id, part, time.perf_counter() - begin, value))
        end = time.perf_counter()
        durations[part].append(end - begin)
        turn += 1


def best_rate(samples: Sequence[Sample], parts: int) -> Optional[float]:
    """Operations per second at the fastest repeat of every part.

    Interference from other work on the host only ever slows a call down,
    so the fastest of several repeats is the steadiest estimate of the
    code's own speed (the rule ``timeit`` follows).  An operation's best
    time is the sum of its parts' fastest calls; ``None`` when a part never
    completed.
    """
    fastest: Dict[int, float] = {}
    for _, part, seconds, _ in samples:
        fastest[part] = min(seconds, fastest.get(part, seconds))
    if len(fastest) < parts:
        return None
    return 1.0 / sum(fastest.values())


def check_repeats(
    outcome: Outcome, samples: Sequence[Sample],
    digests_of: Callable[[int, Any], Dict[str, str]],
) -> Dict[str, str]:
    """Every repeat of a part must give its first repeat's digests.

    ``digests_of(part, value)`` digests one call's result; returns the
    first repeat's digests of every part.
    """
    reference: Dict[int, Dict[str, str]] = {}
    for op_id, part, _, value in samples:
        digests = digests_of(part, value)
        outcome.check(op_id, reference.setdefault(part, digests) == digests,
                      "results differ between repeats of the same input")
    return {key: digest for part in sorted(reference)
            for key, digest in reference[part].items()}


def window_outcome(out: Outcome, samples: Sequence[Sample], window_s: float,
                   parts: int) -> Outcome:
    """Fill the untraced run's timings from the window's samples."""
    out.durations = [seconds for _, _, seconds, _ in samples]
    out.window_s = window_s
    out.best_ops_per_s = best_rate(samples, parts)
    return out


def split_objects(
    outcome: Outcome, trace: LayerTrace, inputs, soa_digests: Dict[str, str],
) -> Dict[str, float]:
    """The object-engine component split over ``(key, config, workload)`` inputs."""
    split = ObjectSplit(trace)
    for key, config, workload in inputs:
        op = outcome.attempt()
        try:
            same = split.add(config, workload, soa_digests[key])
        except Exception as error:  # counted, and the run goes on
            outcome.fail(op, f"{key}: object split: {type(error).__name__}: {error}")
        else:
            outcome.check(op, same, f"{key}: traced object result differs from soa")
    return split.metrics()


# --- direct simulate calls ------------------------------------------------


class ReplayWorkload:
    """One operation = one ``repro.simulate`` call per trace (a pass).

    The window calls the traces in turn; each call is one part of the pass.
    """

    def __init__(self, scenarios: Sequence[Tuple[str, str]], trace_length: int,
                 warmup_length: int = WARMUP_LENGTH) -> None:
        self.scenarios = list(scenarios)
        self.trace_length = trace_length
        self.warmup_length = warmup_length

    def setup(self, seed: int, workdir: Path) -> None:
        from repro import all_configs, build_workload, simulate

        configs = all_configs()
        start = time.perf_counter()
        self.inputs = [
            (f"{bench}/{name}", configs[name], build_workload(
                bench, num_accesses=self.trace_length,
                num_sms=configs[name].num_sms, seed=seed,
            ))
            for bench, name in self.scenarios
        ]
        self.build_s = time.perf_counter() - start
        _, config, _ = self.inputs[0]
        simulate(config, build_workload(
            self.scenarios[0][0], num_accesses=self.warmup_length,
            num_sms=config.num_sms, seed=seed,
        ))

    def run(self, seconds: float, trace: Optional[LayerTrace]) -> Outcome:
        from repro import simulate
        from repro.benchmarks import result_digest

        out = Outcome()
        parts = [
            lambda config=config, workload=workload: simulate(config, workload)
            for _, config, workload in self.inputs
        ]
        with trace.patches() if trace else nullcontext():
            if trace:
                probe_engine(trace)
            samples, window_s = run_window(seconds, parts, out)
        out.digests = check_repeats(
            out, samples, lambda part, result: {self.inputs[part][0]: result_digest(result)}
        )
        if trace is None:
            return window_outcome(out, samples, window_s, len(parts))
        out.metrics = engine_metrics(trace, len(samples) / len(parts))
        out.metrics["workloads.build_s"] = self.build_s
        out.metrics["workloads.accesses"] = sum(len(w.trace) for _, _, w in self.inputs)
        out.metrics.update(split_objects(out, trace, self.inputs, out.digests))
        return out

    def close(self) -> None:
        pass


# --- the sharded engine ---------------------------------------------------


class ShardedWorkload:
    """One operation = one ``engine="sharded"`` simulation of one long trace."""

    #: two shards on two worker processes: one per CPU of a 2-CPU host
    SHARDS = WORKERS = 2

    def __init__(self, benchmark: str, config: str, trace_length: int,
                 warmup_length: int = WARMUP_LENGTH) -> None:
        self.benchmark = benchmark
        self.config_name = config
        self.trace_length = trace_length
        self.warmup_length = warmup_length
        self.key = f"{benchmark}/{config}"

    def setup(self, seed: int, workdir: Path) -> None:
        from repro import all_configs, build_workload

        self.config = all_configs()[self.config_name]
        start = time.perf_counter()
        self.workload = build_workload(
            self.benchmark, num_accesses=self.trace_length,
            num_sms=self.config.num_sms, seed=seed,
        )
        self.build_s = time.perf_counter() - start
        self._sharded(build_workload(
            self.benchmark, num_accesses=self.warmup_length,
            num_sms=self.config.num_sms, seed=seed,
        ))

    def _sharded(self, workload):
        from repro.engine import make_simulator

        return make_simulator(
            self.config, workload, engine="sharded",
            shards=self.SHARDS, workers=self.WORKERS,
        ).run()

    def run(self, seconds: float, trace: Optional[LayerTrace]) -> Outcome:
        from repro.benchmarks import result_digest

        out = Outcome()
        sharded_key = f"{self.key}/sharded{self.SHARDS}"

        def op():
            if trace is None:
                return self._sharded(self.workload)
            with trace.timed("shard.run", items=self.trace_length):
                return self._sharded(self.workload)

        samples, window_s = run_window(seconds, [op], out)
        out.digests = check_repeats(
            out, samples, lambda _, result: {sharded_key: result_digest(result)}
        )
        if trace is None:
            return window_outcome(out, samples, window_s, 1)
        if not samples:
            return out
        durations = [seconds for _, _, seconds, _ in samples]

        def soa():
            # looked up per call, so the probe's wrapper is seen when present
            from repro.engine import make_simulator

            return make_simulator(self.config, self.workload, engine="soa").run()

        # The object engine would take minutes on this trace, so the
        # traced-equals-untraced check runs the soa engine under the probe.
        with trace.timed("reference.soa"):
            reference = out.guarded("soa reference", soa)
        with trace.patches():
            probe_engine(trace)
            traced = out.guarded("traced soa", soa)
        split = out.guarded("shard split", lambda: shard_split(
            trace, self.config, self.workload, self.SHARDS,
        ))
        m = out.metrics
        m["workloads.build_s"] = self.build_s
        m["workloads.accesses"] = self.trace_length
        m.update(engine_metrics(trace, 1))
        if reference is not None:
            out.digests[self.key] = result_digest(reference)
            m.update(sharded_error(reference, samples[0][3]))
            if traced is not None:
                out.check(out.attempt(), result_digest(traced) == out.digests[self.key],
                          "traced soa result differs from the untraced one")
        if split is not None:
            merged, payloads, job_s = split
            out.check(out.attempt(), result_digest(merged) == out.digests[sharded_key],
                      "in-process shard stages differ from the sharded engine")
            requests = [p["rollup"]["l2_requests"] for p in payloads if not p["idle"]]
            partition_s = trace.value("shard.partition", TOTAL_S)
            merge_s = trace.value("shard.merge", TOTAL_S)
            m["shard.partition_s"] = partition_s
            m["shard.worker_s_max"] = max(job_s)
            m["shard.worker_s_mean"] = statistics.fmean(job_s)
            m["shard.merge_s"] = merge_s
            m["shard.pool_overhead_s"] = (
                statistics.median(durations) - partition_s - max(job_s) - merge_s
            )
            m["shard.request_imbalance"] = max(requests) / statistics.fmean(requests)
        return out

    def close(self) -> None:
        pass


#: Result fields the sharded engine's divergence is measured on.
ERROR_FIELDS = (
    ("ipc", "ipc"),
    ("l2_hit_rate", "l2_hit_rate"),
    ("l2_dynamic_energy", "l2_dynamic_energy_j"),
    ("avg_read_latency", "avg_read_latency_cycles"),
    ("dram_accesses", "dram_accesses"),
)


def sharded_error(reference, sharded) -> Dict[str, float]:
    """Absolute relative divergence (%) of a sharded result from ``soa``."""
    errors = {
        f"shard.err.{name}_pct":
            abs(getattr(sharded, field) - getattr(reference, field))
            / abs(getattr(reference, field)) * 100.0
        for name, field in ERROR_FIELDS
    }
    errors["shard.max_err_pct"] = max(errors.values())
    return errors


# --- the experiment battery ------------------------------------------------


class BatteryWorkload:
    """One operation = one serial ``run_battery(["fig8", "fig6"])``, no cache."""

    EXPERIMENTS = ("fig8", "fig6")

    def __init__(self, trace_length: int, benchmarks: List[str],
                 warmup_length: int = 200) -> None:
        self.trace_length = trace_length
        self.benchmarks = benchmarks
        self.warmup_length = warmup_length

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.experiments.parallel import run_battery

        self.seed = seed
        run_battery(list(self.EXPERIMENTS), trace_length=self.warmup_length,
                    benchmarks=self.benchmarks[:1], seed=seed, use_cache=False)

    def _battery(self):
        from repro.experiments.parallel import run_battery

        return run_battery(
            list(self.EXPERIMENTS), trace_length=self.trace_length,
            benchmarks=self.benchmarks, seed=self.seed, jobs=1, use_cache=False,
        )

    def run(self, seconds: float, trace: Optional[LayerTrace]) -> Outcome:
        from repro.experiments import fig6, fig8
        from repro.io import canonical_json, experiment_result_to_dict

        out = Outcome()
        with trace.patches() if trace else nullcontext():
            if trace:
                probe_engine(trace)
                for module in (fig8, fig6):
                    trace.wrap(module, "build_workload", "workloads.build",
                               items=lambda workload: len(workload.trace))
                trace.wrap(fig6, "rewrite_interval_distribution",
                           "experiments.analysis")
            samples, window_s = run_window(seconds, [self._battery], out)

        def digests(_, value):
            results, _ = value
            return {
                f"{name}@{self.trace_length}": sha256_text(canonical_json(
                    experiment_result_to_dict(results[name])
                ))
                for name in self.EXPERIMENTS
            }

        out.digests = check_repeats(out, samples, digests)
        if trace is None:
            return window_outcome(out, samples, window_s, 1)
        passes = len(samples)
        if not passes:
            return out
        jobs = [r.wall_time_s for _, _, _, (_, t) in samples for r in t.records]
        m = engine_metrics(trace, passes)
        m["workloads.build_s"] = trace.value("workloads.build", TOTAL_S) / passes
        m["workloads.accesses"] = trace.value("workloads.build", ITEMS) / passes
        m["experiments.jobs"] = len(jobs) / passes
        m["experiments.job_s_p50"] = statistics.median(jobs)
        m["experiments.job_s_max"] = max(jobs)
        m["experiments.analysis_s"] = (
            trace.value("experiments.analysis", TOTAL_S) / passes
        )
        out.metrics = m
        m.update(self._split(out, trace))
        return out

    def _split(self, out: Outcome, trace: LayerTrace) -> Dict[str, float]:
        """Object split over fig8's (benchmark, config) pairs, both in turn.

        Every trace and every config is covered at least once; all of
        fig8's pairs on the object engine would take minutes.
        """
        from repro import all_configs, build_workload, simulate
        from repro.benchmarks import result_digest

        configs = sorted(all_configs().items())
        inputs, soa = [], {}
        for index in range(max(len(self.benchmarks), len(configs))):
            bench = self.benchmarks[index % len(self.benchmarks)]
            workload = build_workload(bench, num_accesses=self.trace_length,
                                      seed=self.seed)
            name, config = configs[index % len(configs)]
            key = f"{bench}/{name}"
            inputs.append((key, config, workload))
            soa[key] = result_digest(simulate(config, workload))
        return split_objects(out, trace, inputs, soa)

    def close(self) -> None:
        pass


# --- the simulation service -------------------------------------------------


class ServiceWorkload:
    """One operation = one request to ``repro.cli serve`` in its own process.

    The benchmark process drives the server as a closed loop over
    ``CONNECTIONS`` connections, one thread each.  Requests come in blocks
    of ``block`` in shuffled order: ``colds`` cold ``simulate`` requests of
    scenarios never asked before, ``predicts`` ``predict`` requests over
    ``PREDICT_PAIRS`` (config, benchmark) pairs, and ``simulate`` repeats
    of scenarios already asked (served from the result store).  The
    default mix is that of an exploration session of 2000 requests with 48
    cold ones and a quarter predictions; repeating it per block keeps the
    share of cold work the same whatever the window length, and makes each
    block a repeat of the same mix whose fastest time can be taken.
    """

    #: peak RSS is the server's, not the load generator's
    serves = True
    #: exploration scripts wait for each reply: two of them, one thread each
    CONNECTIONS = 2
    PREDICT_PAIRS = 3
    #: trace seeds per (benchmark, config) pair: enough cold scenarios for
    #: a window of a minute
    COLD_SEEDS = 4

    def __init__(self, trace_length: int = SERVICE_TRACE_LENGTH,
                 block: int = 250, colds: int = 6, predicts: int = 62,
                 split_scenarios: int = 8,
                 warmup_length: int = WARMUP_LENGTH) -> None:
        self.trace_length = trace_length
        self.block = block
        self.colds = colds
        self.predicts = predicts
        self.split_scenarios = split_scenarios
        self.warmup_length = warmup_length
        self.server: Optional[subprocess.Popen] = None
        self.clients: list = []

    def build_plan(self, seed: int) -> List[Dict[str, Any]]:
        """The seeded request stream: blocks until the cold scenarios run out."""
        from repro.config import all_configs
        from repro.workloads.suite import suite_names

        rng = random.Random(seed)
        pairs = [(b, c) for b in suite_names() for c in sorted(all_configs())]
        cold = [(b, c, seed + k) for k in range(self.COLD_SEEDS) for b, c in pairs]
        rng.shuffle(cold)
        predict = rng.sample(pairs, self.PREDICT_PAIRS)
        seen: List[tuple] = []
        plan = []
        for start in range(0, len(cold) - self.colds + 1, self.colds):
            kinds = (["cold"] * self.colds + ["predict"] * self.predicts
                     + ["hit"] * (self.block - self.colds - self.predicts))
            rng.shuffle(kinds)
            if not seen:  # a repeat needs a scenario asked before it
                kinds.remove("cold")
                kinds.insert(0, "cold")
            fresh = iter(cold[start:start + self.colds])
            for kind in kinds:
                if kind == "predict":
                    bench, config = rng.choice(predict)
                    trace_seed = seed
                else:
                    if kind == "cold":
                        seen.append(next(fresh))
                    bench, config, trace_seed = seen[-1] if kind == "cold" else rng.choice(seen)
                plan.append({
                    "kind": "simulate" if kind != "predict" else "predict",
                    "benchmark": bench, "config": config, "seed": trace_seed,
                    "trace_length": self.trace_length,
                })
        return plan

    def setup(self, seed: int, workdir: Path) -> None:
        import repro
        from repro.service.client import ServiceClient

        self.seed = seed
        self.store_dir = workdir / f"service-store-{time.time_ns()}"
        # the server runs the very package this process imported
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(repro.__file__).resolve().parent.parent),
            env.get("PYTHONPATH"),
        ]))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--store-dir", str(self.store_dir)],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        # Server and load generator each get a CPU of their own: left to
        # the scheduler, the pair's placement flips the median request
        # latency between modes ~30% apart every few seconds.  The
        # server's thread pool is GIL-bound, so one CPU does not limit it.
        # The server has started no threads yet, so all of them inherit.
        self.affinity = os.sched_getaffinity(0)
        if len(self.affinity) >= 2:
            server_cpu, client_cpu = sorted(self.affinity)[:2]
            os.sched_setaffinity(self.server.pid, {server_cpu})
            os.sched_setaffinity(0, {client_cpu})
        ready, _, _ = select.select([self.server.stdout], [], [], 60.0)
        line = self.server.stdout.readline() if ready else ""
        if "listening on" not in line:
            raise RuntimeError(f"service did not start: {line!r}")
        port = int(line.rsplit(":", 1)[1])
        self.clients = [ServiceClient(port=port) for _ in range(self.CONNECTIONS)]
        for client in self.clients:
            client.ping()
        # Warm-ups use a trace length the plan never requests: one
        # simulation, and one prediction per predicted pair so the
        # surrogate's anchors are fitted before the window.
        self.plan = self.build_plan(seed)
        self.clients[0].simulate("nn", "baseline", trace_length=self.warmup_length,
                                 seed=seed)
        for bench, config in sorted({(r["benchmark"], r["config"])
                                     for r in self.plan if r["kind"] == "predict"}):
            self.clients[0].predict(bench, config, trace_length=self.warmup_length,
                                    seed=seed)

    def close(self) -> None:
        try:
            if self.clients and self.server is not None:
                self.clients[0].shutdown()
        finally:
            for client in self.clients:
                client.close()
            if self.server is not None:
                if not self.clients:
                    self.server.kill()
                try:
                    self.server.communicate(timeout=60)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    self.server.communicate()
                shutil.rmtree(self.store_dir, ignore_errors=True)
                os.sched_setaffinity(0, self.affinity)
            self.clients = []
            self.server = None

    def _drive(self, seconds: float, trace: Optional[LayerTrace]):
        """Closed loop over the connections.

        Returns ``({plan index: (seconds, response)}, {plan index: error},
        {plan index: perf_counter at its reply}, window start, window
        seconds)``.
        """
        responses: Dict[int, Tuple[float, Dict[str, Any]]] = {}
        errors: Dict[int, str] = {}
        finished: Dict[int, float] = {}
        cursor = iter(range(len(self.plan)))
        lock = threading.Lock()
        ends: List[float] = []
        start = time.perf_counter()
        deadline = start + seconds

        def drive(client) -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                # the first block always completes, so there is one to time
                if index is None or (index >= self.block
                                     and time.perf_counter() >= deadline):
                    break
                begin = time.perf_counter()
                try:
                    response = client.request(self.plan[index])
                except Exception as error:  # counted per request
                    errors[index] = f"{type(error).__name__}: {error}"
                    continue
                end = time.perf_counter()
                responses[index] = (end - begin, response)
                finished[index] = end
                if trace is not None:
                    trace.add_span(
                        f"service.{self.plan[index]['kind']}."
                        f"{response.get('cache', 'error')}",
                        begin, end, request=index,
                    )
            ends.append(time.perf_counter())

        threads = [threading.Thread(target=drive, args=(c,)) for c in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return responses, errors, finished, start, max(ends) - start

    def _best_block_rate(self, finished: Dict[int, float],
                         start: float) -> Optional[float]:
        """Requests per second over the fastest complete block of the plan.

        Every block holds the same mix, so blocks are repeats of one
        operation (see :func:`best_rate`).  A block's time runs from the
        previous block's last reply to its own last reply.
        """
        ends = []
        for first in range(0, len(self.plan), self.block):
            block = range(first, min(first + self.block, len(self.plan)))
            if not all(index in finished for index in block):
                break
            ends.append(max(finished[index] for index in block))
        times = [end - begin for begin, end in zip([start] + ends, ends)]
        return self.block / min(times) if times else None

    def run(self, seconds: float, trace: Optional[LayerTrace]) -> Outcome:
        from repro.io import canonical_json

        out = Outcome()
        responses, errors, finished, start, window_s = self._drive(seconds, trace)
        op_of = {index: out.attempt() for index in sorted({*responses, *errors})}
        for index, message in errors.items():
            out.fail(op_of[index], f"request {index}: {message}")
        served: Dict[tuple, List[int]] = {}
        for index, (_, response) in sorted(responses.items()):
            if not response.get("ok"):
                out.fail(op_of[index], f"request {index}: {response.get('error')}")
                continue
            request = self.plan[index]
            key = (request["kind"], request["benchmark"], request["config"],
                   request["seed"])
            served.setdefault(key, []).append(index)
        texts = {
            index: canonical_json(responses[index][1]["payload"])
            for indices in served.values() for index in indices
        }
        with trace.patches() if trace else nullcontext():
            if trace:
                probe_engine(trace)
            compute_ms = self._check_simulations(out, served, texts, op_of, trace)
        self._check_predictions(out, served, texts, op_of)

        latencies = [
            responses[i][0] for i in responses if op_of[i] not in out.failed_ops
        ]
        out.durations, out.window_s = latencies, window_s
        out.best_ops_per_s = self._best_block_rate(
            {i: end for i, end in finished.items() if op_of[i] not in out.failed_ops},
            start,
        )
        out.details["responses"] = _provenance(responses)
        if trace is not None:
            out.metrics = self._layers(
                out, trace, responses, self.clients[0].stats(), compute_ms, texts,
            )
        return out

    def _check_simulations(self, out, served, texts, op_of, trace) -> List[float]:
        """Every simulate payload equals a direct ``repro.simulate``.

        Returns the direct runs' wall times in ms (what the server computes
        per cold request: trace generation, simulation, payload).
        """
        from repro import all_configs, build_workload, simulate
        from repro.io import canonical_json, simulation_result_to_dict

        configs = all_configs()
        timed = trace.timed if trace else (lambda *_, **__: nullcontext())
        self.direct: List[tuple] = []
        compute_ms = []
        for key, indices in served.items():
            kind, bench, name, seed = key
            if kind != "simulate":
                continue
            config = configs[name]
            start = time.perf_counter()
            try:
                with timed("service.compute"):
                    with timed("workloads.build", items=self.trace_length):
                        workload = build_workload(
                            bench, num_accesses=self.trace_length,
                            num_sms=config.num_sms, seed=seed,
                        )
                    expected = canonical_json(
                        simulation_result_to_dict(simulate(config, workload))
                    )
            except Exception as error:  # every request of the scenario fails
                for index in indices:
                    out.fail(op_of[index], f"{key}: {type(error).__name__}: {error}")
                continue
            compute_ms.append((time.perf_counter() - start) * 1e3)
            label = f"{bench}/{name}/{seed}"
            out.digests[label] = sha256_text(expected)
            self.direct.append((label, config, workload))
            for index in indices:
                out.check(op_of[index], texts[index] == expected,
                          f"request {index}: payload differs from a direct run")
        return compute_ms

    def _check_predictions(self, out, served, texts, op_of) -> None:
        """Every predict payload equals an in-process surrogate prediction."""
        from repro.io import canonical_json
        from repro.surrogate.model import SurrogateOracle

        self.oracle = SurrogateOracle()
        self.fit_s = 0.0
        for key, indices in served.items():
            kind, bench, name, seed = key
            if kind != "predict":
                continue
            start = time.perf_counter()
            try:
                expected = canonical_json(
                    self.oracle.predict(name, bench, self.trace_length, seed)
                )
            except Exception as error:  # every request of the pair fails
                for index in indices:
                    out.fail(op_of[index], f"{key}: {type(error).__name__}: {error}")
                continue
            self.fit_s += time.perf_counter() - start
            for index in indices:
                out.check(op_of[index], texts[index] == expected,
                          f"request {index}: prediction differs from in-process")

    def _layers(self, out, trace, responses, stats, compute_ms, texts):
        from repro.service import protocol

        def p50(kind: str, provenance: Optional[str] = None) -> float:
            values = [
                latency * 1e3 for index, (latency, response) in responses.items()
                if self.plan[index]["kind"] == kind
                and provenance in (None, response.get("cache"))
            ]
            return statistics.median(values) if values else 0.0

        colds = len(compute_ms) or 1
        tail = tail_percentile(out.durations)
        m = engine_metrics(trace, colds)
        m["workloads.build_s"] = trace.value("workloads.build", TOTAL_S) / colds
        m["workloads.accesses"] = trace.value("workloads.build", ITEMS) / colds
        miss = p50("simulate", "miss")
        compute = statistics.median(compute_ms) if compute_ms else 0.0
        store = stats.get("store") or {}
        lookups = store.get("hits", 0) + store.get("misses", 0)
        m.update({
            "service.hit_ms_p50": p50("simulate", "hit"),
            "service.miss_ms_p50": miss,
            "service.predict_ms_p50": p50("predict"),
            "service.compute_ms_p50": compute,
            "service.overhead_ms": miss - compute,
            "service.tail_ms": tail[1] * 1e3 if tail else 0.0,
            "service.store.hit_rate": store.get("hits", 0) / lookups if lookups else 0.0,
            "service.coalesced": stats["cache"]["coalesced"]
            + stats["predict"]["coalesced"],
            "service.errors": stats["errors"],
            "surrogate.fit_s": self.fit_s,
        })
        predicted = next(
            (r for r in self.plan if r["kind"] == "predict"), None
        )
        if predicted is not None:
            calls = 200
            start = time.perf_counter()
            for _ in range(calls):
                self.oracle.predict(predicted["config"], predicted["benchmark"],
                                    self.trace_length, self.seed)
            m["surrogate.predict_us"] = (time.perf_counter() - start) / calls * 1e6
        encode_ms = []
        for index in sorted(texts)[:200]:
            start = time.perf_counter()
            protocol.encode_message(responses[index][1])
            encode_ms.append((time.perf_counter() - start) * 1e3)
        m["io.payload_json_ms"] = statistics.median(encode_ms) if encode_ms else 0.0
        m.update(split_objects(
            out, trace, self.direct[: self.split_scenarios], out.digests,
        ))
        return m


def _provenance(responses) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for _, response in responses.values():
        key = f"{response.get('kind', 'error')}.{response.get('cache', '-')}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def make(name: str):
    """A fresh workload at the benchmark's sizes."""
    factories = {
        "replay-twopart": lambda: ReplayWorkload(
            [("lbm", "C1"), ("sgemm", "C1")], REPLAY_LENGTH),
        "replay-uniform": lambda: ReplayWorkload(
            [("nn", "baseline"), ("streamcluster", "stt-baseline")], REPLAY_LENGTH),
        "scale-sharded": lambda: ShardedWorkload("bfs", "C1", SCALE_LENGTH),
        "battery": lambda: BatteryWorkload(BATTERY_TRACE_LENGTH,
                                           list(BATTERY_BENCHMARKS)),
        "service-mixed": lambda: ServiceWorkload(),
    }
    if name not in factories:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(factories)}")
    return factories[name]()
