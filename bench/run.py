"""Run the repository benchmark.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace 0|1] [--out FILE]

Every named workload (default: all five in ``BENCHMARK.json``) runs in
fresh child processes.  An untraced run (``--trace 0``) measures the
end-to-end metrics: one child sets up and measures the window of
``--seconds`` (default ``run_seconds`` from ``BENCHMARK.json``), and
``SETUPS - 1`` more children only set up, so that ``setup_s`` is the
median of ``SETUPS`` set-ups.  A traced run (``--trace 1``) measures the
per-layer metrics in one child and writes a Chrome trace-event file under
``.bench_out/traces/``.  Every metric is printed by name and unit, the
full result document (with the host block) goes to ``--out`` or
``.bench_out/results/``, and the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

At seed 0 the result digests are compared with ``bench/digests.json``; a
difference prints ``RESULTS CHANGED`` and is listed as ``digests_changed``
without failing the run.  After an intended model change, copy the
``digests`` of each workload's seed-0 result documents (untraced and
traced) into that file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.stats import tail_percentile  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
DIGESTS_PATH = ROOT / "bench" / "digests.json"
OUT_DIR = ROOT / ".bench_out"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Every child of one workload's run must have ended by then.
RUN_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: workloads, metric names, units and bounds."""
    return json.loads(SPEC_PATH.read_text())


def complete_metrics(
    measured: Dict[str, float], spec: Dict[str, Any], trace: bool,
) -> Dict[str, Dict[str, Any]]:
    """Check measured metrics against the spec; attach units.

    Every end-to-end metric must be measured.  A per-layer metric the
    workload never reached reads 0 (its layer was not entered).
    """
    entries = spec["per_layer" if trace else "end_to_end"]
    unknown = set(measured) - {e["name"] for e in entries}
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    missing = [e["name"] for e in entries if e["name"] not in measured]
    if missing and not trace:
        raise BenchError(f"end-to-end metrics not measured: {missing}")
    return {
        e["name"]: {"value": measured.get(e["name"], 0), "unit": e["unit"]}
        for e in entries
    }


def peak_rss_mb(children: bool) -> float:
    """Peak RSS (MB) of this process, or of its largest reaped child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def set_up(workload, seed: int, workdir: Path, started: float) -> float:
    """Set one workload up and close it; returns its set-up seconds.

    ``started`` is the ``time.monotonic()`` the set-up time counts from
    (the child's spawn time).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload.setup(seed, workdir)
        return time.monotonic() - started
    finally:
        workload.close()


def measure(
    workload, seed: int, seconds: float, trace: bool, workdir: Path,
    started: float, trace_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """Set up, run and close one workload in this process.

    ``started`` is as for :func:`set_up`.  Returns the child report: the
    end-to-end metrics of this one set-up and window when untraced, the
    per-layer metrics when traced.
    """
    from repro.benchmarks import host_metadata

    from bench.layers import LayerTrace

    layer_trace = LayerTrace() if trace else None
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload.setup(seed, workdir)
        setup_s = time.monotonic() - started
        outcome = workload.run(seconds, layer_trace)
    finally:
        workload.close()
    # read before anything else runs a subprocess: host_metadata() does,
    # and a forked child counts this process's pages until it execs
    peak_mb = peak_rss_mb(getattr(workload, "serves", False))
    report = {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "details": outcome.details,
        "digests": outcome.digests,
        "host": host_metadata(),
    }
    if layer_trace is not None:
        report["metrics"] = outcome.metrics
        if trace_path is not None:
            layer_trace.write_chrome_trace(
                trace_path, {"seed": seed, "seconds": seconds}
            )
        return report
    durations = outcome.durations
    report["metrics"] = {"peak_rss_mb": peak_mb, "setup_s": setup_s}
    if outcome.best_ops_per_s is not None:
        report["metrics"]["best_ops_per_s"] = outcome.best_ops_per_s
    latency: Dict[str, Any] = {"samples": len(durations)}
    if durations:
        latency["p50_ms"] = statistics.median(durations) * 1e3
        tail = tail_percentile(durations)
        if tail is not None:
            latency.update(tail_pct=tail[0], tail_ms=tail[1] * 1e3, beyond=tail[2])
    report["details"] = {**outcome.details, "latency": latency,
                         "window_s": outcome.window_s}
    return report


# --- the child side ---------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    from bench import workloads

    workload = workloads.make(args.workload[0])
    if args.child == "setup":
        report = {"setup_s": set_up(workload, args.seed, OUT_DIR / "tmp", args.t0)}
    else:
        report = measure(
            workload, args.seed, args.seconds, bool(args.trace), OUT_DIR / "tmp",
            args.t0,
            trace_path=OUT_DIR / "traces" / f"{args.workload[0]}-seed{args.seed}.json",
        )
    print(json.dumps(report))
    return 0


# --- the parent side ----------------------------------------------------------


def spawn(workload: str, seed: int, seconds: float, trace: bool, mode: str,
          deadline: float) -> Dict[str, Any]:
    """Run one child process (``mode`` is ``setup`` or ``run``); returns its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    # anything the program puts in a temporary directory stays in the checkout
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(OUT_DIR / "tmp")
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0", "--t0", repr(time.monotonic()),
    ]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: run did not finish within {RUN_TIMEOUT_S:g} s")
    finally:
        if process.poll() is None:
            # the child's process group also holds any server it started
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
    if process.returncode != 0:
        raise BenchError(f"{workload}: child exited with {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One workload's report: one traced child, or one measuring child and
    ``SETUPS - 1`` set-up-only children."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        return spawn(name, seed, seconds, trace, "run", deadline)
    setups = [spawn(name, seed, seconds, trace, "setup", deadline)["setup_s"]
              for _ in range(SETUPS - 1)]
    report = spawn(name, seed, seconds, trace, "run", deadline)
    setups.append(report["metrics"]["setup_s"])
    report["metrics"]["setup_s"] = statistics.median(setups)
    report["details"]["setup_s_samples"] = setups
    return report


def changed_digests(observed: Dict[str, str], pinned: Dict[str, str]) -> List[str]:
    """Scenario keys whose observed digest differs from the pinned one."""
    return sorted(k for k in observed.keys() & pinned.keys() if observed[k] != pinned[k])


def print_report(name: str, entry: Dict[str, Any], spec: Dict[str, Any],
                 trace: bool) -> None:
    bounds = {e["name"]: e for e in spec["end_to_end"]}
    print(f"== {name} ({'traced' if trace else 'untraced'}) ==")
    for metric, value in entry["metrics"].items():
        rule = bounds.get(metric)
        note = (f"  {rule['better']} is better, bound {rule['bound']:.0%}"
                if rule else "")
        print(f"  {metric:36s} {value['value']:>16.6g} {value['unit']:<6s}{note}")
    latency = entry["details"].get("latency")
    if latency and "p50_ms" in latency:
        tail = (f", p{latency['tail_pct']:g} {latency['tail_ms']:.6g} ms "
                f"({latency['beyond']} beyond)" if "tail_pct" in latency else "")
        print(f"  operation latency p50 {latency['p50_ms']:.6g} ms "
              f"(n={latency['samples']}){tail}")
    print(f"  attempted {entry['attempted']}, failed {entry['failed']}")
    for problem in entry["problems"]:
        print(f"  FAILED: {problem}")
    if entry["digests_changed"]:
        print(f"  RESULTS CHANGED: {', '.join(entry['digests_changed'])} "
              "(differ from the seed-0 digests in bench/digests.json)")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see bench/README.md)."
    )
    parser.add_argument("--workload", action="append", default=None,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of every generated input (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per run (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 measures the per-layer metrics instead")
    parser.add_argument("--out", type=Path, default=None,
                        help="result document path (default: .bench_out/results/)")
    parser.add_argument("--child", choices=("setup", "run"), default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _terminate(signum, frame) -> None:
    # unwind through the finally blocks that stop children and servers
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"bench: unknown workload(s) {unknown}; choose from {known}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    trace = bool(args.trace)
    pinned = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}

    entries: Dict[str, Dict[str, Any]] = {}
    host = None
    try:
        for name in names:
            report = run_workload(name, args.seed, seconds, trace)
            host = report["host"]
            entry = {
                "correct": report["failed"] == 0 and report["attempted"] > 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "problems": report["problems"],
                "metrics": complete_metrics(report["metrics"], spec, trace),
                "details": report["details"],
                "digests": report["digests"],
                "digests_changed": changed_digests(
                    report["digests"], pinned.get(name, {})
                ) if args.seed == 0 else [],
            }
            entries[name] = entry
            print_report(name, entry, spec, trace)
            if trace:
                print(f"  trace: .bench_out/traces/{name}-seed{args.seed}.json")
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1

    out = args.out or OUT_DIR / "results" / (
        f"{'-'.join(names) if len(names) < len(known) else 'all'}"
        f"-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "schema": 1, "host": host, "seed": args.seed, "seconds": seconds,
        "trace": trace, "workloads": entries,
    }, indent=2) + "\n")
    print(f"results: {out}")

    if len(entries) == 1:
        (entry,) = entries.values()
        metrics = entry["metrics"]
    else:
        metrics = {
            f"{name}/{metric}": value
            for name, entry in entries.items()
            for metric, value in entry["metrics"].items()
        }
    print(json.dumps({
        "correct": all(e["correct"] for e in entries.values()),
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": sum(e["failed"] for e in entries.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
