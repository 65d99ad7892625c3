"""Command-line interface: ``repro-sttgpu``.

Subcommands
-----------
``experiments``
    Run paper experiments (all by default, or a named subset) and print the
    regenerated tables.
``simulate``
    Run one benchmark on one configuration and print the result.
``configs``
    Print Table 2 (the five simulated systems).
``suite``
    List the benchmark suite with per-benchmark characteristics.
``inject``
    Run a named fault-injection campaign against the two-part L2 with the
    invariant checker attached; exits non-zero iff undetected data loss
    (or any other invariant violation) was found.  See ``docs/faults.md``.
``diff``
    Replay a seeded workload through the optimized two-part L2 and the
    naive reference model in lockstep and diff every observable outcome;
    exits non-zero iff the models diverge.  See ``docs/oracle.md``.
``serve``
    Run the simulation service: an async JSON-over-TCP server with a
    shared result store, request coalescing, and a sharded worker pool.
    See ``docs/service.md``.
``submit``
    Submit one request (simulate, experiment, predict, ping, stats,
    shutdown) to a running service.  An unreachable server exits 2 with a
    one-line diagnostic, matching the unknown-experiment convention.
``predict``
    Ask the local analytical surrogate (no service needed) for an instant
    estimate of one (benchmark, config) point; ``--compare`` also runs
    the trace-driven engine and prints the relative errors.  See
    ``docs/surrogate.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.config import all_configs
from repro.experiments.common import DEFAULT_TRACE_LENGTH
from repro.experiments.parallel import run_battery
from repro.experiments.runner import EXPERIMENTS
from repro.workloads.profiles import PROFILES
from repro.workloads.suite import build_workload, suite_names


def _cmd_experiments(args: argparse.Namespace) -> int:
    names = list(args.names) if args.names else list(EXPERIMENTS)
    unknown = sorted(set(names) - set(EXPERIMENTS))
    if unknown:
        print(
            f"repro-sttgpu experiments: unknown experiment(s): "
            f"{', '.join(repr(n) for n in unknown)}",
            file=sys.stderr,
        )
        print(f"choose from: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        print(
            "usage: repro-sttgpu experiments [NAME ...] [--jobs N] "
            "[--cache-dir DIR] [--manifest FILE] (try --help)",
            file=sys.stderr,
        )
        return 2
    if args.jobs < 1:
        print(
            f"repro-sttgpu experiments: --jobs must be >= 1, got {args.jobs}",
            file=sys.stderr,
        )
        return 2
    results, telemetry = run_battery(
        names,
        trace_length=args.trace_length,
        benchmarks=args.benchmarks,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    for name in names:
        result = results[name]
        print(result.render())
        if args.bars:
            bars = result.render_bars()
            if bars:
                print()
                print(bars)
        print()
    if args.manifest:
        telemetry.write(args.manifest)
        print(
            f"wrote manifest {args.manifest} "
            f"({telemetry.cache_hits} cache hits, "
            f"{telemetry.cache_misses} misses, "
            f"{telemetry.wall_time_s:.2f}s)"
        )
    if args.json:
        from repro.io import save_experiments

        save_experiments(results, args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    configs = all_configs()
    if args.config not in configs:
        print(f"unknown config {args.config!r}; choose from {sorted(configs)}",
              file=sys.stderr)
        return 2
    if args.trace_sample < 1:
        print(
            f"repro-sttgpu simulate: --trace-sample must be >= 1, "
            f"got {args.trace_sample}",
            file=sys.stderr,
        )
        return 2
    workload = build_workload(
        args.benchmark, num_accesses=args.trace_length, seed=args.seed
    )
    from repro.engine import make_simulator
    from repro.errors import ConfigurationError

    if args.trace:
        from repro.tracing import TraceCollector

        tracer = TraceCollector(sample_every=args.trace_sample)
    else:
        tracer = None
    if args.engine != "sharded" and (
        args.shards is not None or args.workers is not None
    ):
        print(
            "repro-sttgpu simulate: --shards/--workers apply only to "
            "--engine sharded (see docs/sharding.md)",
            file=sys.stderr,
        )
        return 2
    sim_kwargs = {}
    if args.engine == "sharded":
        sim_kwargs["shards"] = 4 if args.shards is None else args.shards
        if args.workers is not None:
            sim_kwargs["workers"] = args.workers
    engine = args.engine
    if engine is None and tracer is not None:
        # tracing is an object-engine feature; an explicit --engine soa
        # or sharded with --trace is refused below
        engine = "object"
    try:
        simulator = make_simulator(
            configs[args.config], workload, engine=engine, tracer=tracer,
            **sim_kwargs,
        )
    except ConfigurationError as exc:
        print(f"repro-sttgpu simulate: {exc}", file=sys.stderr)
        return 2
    result = simulator.run()
    print(f"benchmark      : {result.workload}")
    print(f"config         : {result.config}")
    print(f"IPC            : {result.ipc:.2f} (bound by {result.bound_by})")
    print(f"warps/SM       : {result.warps_per_sm} (limited by {result.occupancy_limiter})")
    print(f"L1 hit rate    : {result.l1_hit_rate:.3f}")
    print(f"L2 hit rate    : {result.l2_hit_rate:.3f}")
    print(f"DRAM accesses  : {result.dram_accesses}")
    print(f"L2 dynamic W   : {result.l2_dynamic_power_w:.4f}")
    print(f"L2 leakage W   : {result.l2_leakage_power_w:.4f}")
    print(f"L2 total W     : {result.l2_total_power_w:.4f}")
    if result.lr_write_share is not None:
        print(f"LR write share : {result.lr_write_share:.3f}")
        print(f"migrations->LR : {result.migrations_to_lr}")
    if args.engine == "sharded" and result.bank_stats:
        from repro.cache.banked import summarize_banks

        banks = summarize_banks(result.bank_stats)
        rate = banks["conflict_rate"]
        wait = banks["mean_wait_s"]
        print(
            f"L2 banks       : {banks['active_banks']}/{banks['banks']} "
            f"active ({simulator.shards} shards, {simulator.workers} workers), "
            f"conflict rate "
            f"{'n/a' if rate is None else format(rate, '.3f')}, "
            f"mean wait "
            f"{'n/a' if wait is None else format(wait * 1e9, '.1f') + ' ns'}"
        )
    if tracer is not None:
        tracer.write(args.trace_out)
        summary = tracer.summary()
        print(
            f"trace          : {args.trace_out} "
            f"({summary['events']} events, {summary['dropped_events']} dropped, "
            f"{len(summary['counters'])} counters)"
        )
        if args.manifest:
            from repro.telemetry import JobRecord, RunTelemetry

            telemetry = RunTelemetry(
                jobs=1,
                trace_length=args.trace_length,
                seed=args.seed,
                benchmarks=[args.benchmark],
                experiments=["simulate"],
            )
            telemetry.record(JobRecord(
                key=f"simulate:{args.benchmark}:{args.config}",
                kind="simulate",
                benchmark=args.benchmark,
                trace_length=args.trace_length,
                seed=args.seed,
                experiments=["simulate"],
                worker=0,
                wall_time_s=0.0,
                cache_hit=False,
                counters={"l2_requests": result.l2_requests},
            ))
            telemetry.attach_trace(summary)
            telemetry.write(args.manifest)
            print(f"manifest       : {args.manifest}")
    return 0


def _cmd_inject(args: argparse.Namespace) -> int:
    from repro.errors import FaultInjectionError
    from repro.faults import run_campaign, write_report

    try:
        report = run_campaign(
            args.campaign,
            seed=args.seed,
            trace_length=args.trace_length,
            check_interval=args.check_interval,
        )
    except FaultInjectionError as exc:
        print(f"repro-sttgpu inject: {exc}", file=sys.stderr)
        return 2
    summary = report["summary"]
    print(f"campaign       : {report['campaign']} ({report['description']})")
    print(f"workload/config: {report['workload']} on {report['config']} "
          f"({report['trace_length']} records, seed {report['seed']})")
    print(f"faults injected: {summary['faults_injected']}")
    print(f"  detected     : {summary['faults_detected']}")
    print(f"  recovered    : {summary['faults_recovered']}")
    print(f"  vacated      : {summary['faults_vacated']}")
    print(f"  pending      : {summary['faults_pending']}")
    print(f"data losses    : {summary['data_losses_detected']} detected, "
          f"{summary['undetected_data_loss']} undetected")
    invariants = report["invariants"]
    print(f"invariants     : {invariants['checks']} checks, "
          f"{invariants['total_violations']} violations")
    for violation in invariants["violations"][:5]:
        print(f"  [{violation['invariant']}] {violation['detail']}")
    if args.out:
        write_report(report, args.out)
        print(f"report         : {args.out}")
    if report["ok"]:
        print("verdict        : OK (all faults detected or recovered)")
        return 0
    print("verdict        : FAIL (undetected data loss or invariant violation)")
    return 1


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.errors import OracleError
    from repro.io import write_json_atomic
    from repro.oracle import (
        DEFAULT_DT_S,
        pressure_config,
        run_diff,
        validate_report,
    )

    configs = all_configs()
    if args.config == "oracle-small":
        config = pressure_config()
    elif args.config in configs:
        config = configs[args.config]
    else:
        print(
            f"repro-sttgpu diff: unknown config {args.config!r}; choose a "
            f"two-part config from {sorted(configs)} or 'oracle-small'",
            file=sys.stderr,
        )
        return 2
    tracer = None
    if args.trace_out:
        from repro.tracing import TraceCollector

        tracer = TraceCollector()
    try:
        report = run_diff(
            args.benchmark,
            config,
            seed=args.seed,
            accesses=args.accesses,
            dt_s=args.dt if args.dt is not None else DEFAULT_DT_S,
            shrink=args.shrink,
            mutant=args.mutant,
            tracer=tracer,
            engine=args.engine,
        )
        validate_report(report)
    except OracleError as exc:
        print(f"repro-sttgpu diff: {exc}", file=sys.stderr)
        return 2
    divergence = report["divergence"]
    print(f"benchmark      : {report['profile']} "
          f"({report['accesses']} accesses, seed {report['seed']})")
    print(f"config         : {report['config']} [engine {report['engine']}]"
          + (f" [mutant {report['mutant']}]" if report["mutant"] else ""))
    print(f"checked        : {report['checked_accesses']} accesses in lockstep")
    if divergence is not None:
        fields = [f["field"] for f in divergence["fields"]]
        print(f"divergence     : access #{divergence['index']} "
              f"at t={divergence['now_s']:.6e}s "
              f"(address {divergence['address']!r})")
        print(f"  fields       : {', '.join(fields[:6])}"
              + (f" (+{len(fields) - 6} more)" if len(fields) > 6 else ""))
        shrunk = report["shrunk"]
        if shrunk is not None:
            print(f"  reproducer   : shrunk to {len(shrunk['accesses'])} "
                  f"access(es)")
    if args.out:
        write_json_atomic(report, args.out)
        print(f"report         : {args.out}")
    if tracer is not None:
        tracer.write(args.trace_out)
        print(f"trace          : {args.trace_out}")
    if divergence is None:
        print("verdict        : OK (models agree on every access)")
        return 0
    print("verdict        : DIVERGED (timing-model bug or broken reference)")
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import tempfile

    from repro.errors import ServiceError
    from repro.service import ShardedWorkerPool, SharedResultStore, SimulationServer

    log_handle = None
    if args.log:
        log_handle = open(args.log, "a", encoding="utf-8")

    def log(line: str) -> None:
        # the announce line goes to stdout so scripts (and the
        # service-smoke CI job) can parse the bound port; --log tees a
        # copy to a file for post-mortem artifacts
        print(f"repro-sttgpu serve: {line}", flush=True)
        if log_handle is not None:
            log_handle.write(line + "\n")
            log_handle.flush()

    tmp = None
    try:
        pool = ShardedWorkerPool(shards=args.pool_shards)
        store_dir = args.store_dir
        if store_dir is None:
            tmp = tempfile.TemporaryDirectory(prefix="repro-service-")
            store_dir = tmp.name
        store = SharedResultStore(
            store_dir,
            max_entries=args.max_entries,
            max_bytes=args.max_bytes,
        )
    except ServiceError as exc:
        print(f"repro-sttgpu serve: {exc}", file=sys.stderr)
        if tmp is not None:
            tmp.cleanup()
        if log_handle is not None:
            log_handle.close()
        return 2
    server = SimulationServer(
        host=args.host,
        port=args.port,
        store=store,
        pool=pool,
        log=log,
        drain_timeout_s=args.drain_timeout,
    )
    try:
        asyncio.run(server.serve())
    except KeyboardInterrupt:
        return 130
    finally:
        if tmp is not None:
            tmp.cleanup()
        if log_handle is not None:
            log_handle.close()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.errors import ServiceConnectionError, ServiceError
    from repro.service import ServiceClient

    modes = sum(
        (
            args.ping,
            args.stats,
            args.shutdown,
            args.experiment is not None,
            args.benchmark is not None,
        )
    )
    if modes != 1:
        print(
            "repro-sttgpu submit: give exactly one of BENCHMARK CONFIG, "
            "--experiment NAME, --ping, --stats, or --shutdown",
            file=sys.stderr,
        )
        return 2
    if args.benchmark is not None and args.config is None:
        print(
            "repro-sttgpu submit: BENCHMARK needs a CONFIG "
            "(e.g. repro-sttgpu submit bfs C1)",
            file=sys.stderr,
        )
        return 2
    if args.predict and args.benchmark is None:
        print(
            "repro-sttgpu submit: --predict needs BENCHMARK CONFIG "
            "(e.g. repro-sttgpu submit --predict bfs C1)",
            file=sys.stderr,
        )
        return 2
    if args.predict and (args.engine is not None or args.shards is not None):
        print(
            "repro-sttgpu submit: --predict is engine-independent; "
            "drop --engine/--shards",
            file=sys.stderr,
        )
        return 2
    try:
        with ServiceClient(
            host=args.host, port=args.port, timeout_s=args.timeout
        ) as client:
            if args.ping:
                response = client.ping()
                print(f"pong (protocol {response['protocol']})")
            elif args.stats:
                stats = client.stats()
                from repro.io import canonical_json

                print(canonical_json(stats))
            elif args.shutdown:
                client.shutdown()
                print("server draining")
            elif args.experiment is not None:
                response = client.experiment(
                    args.experiment,
                    trace_length=args.trace_length,
                    seed=args.seed,
                )
                print(f"experiment     : {args.experiment}")
                print(f"digest         : {response['digest']}")
                print(f"jobs           : {response['jobs']}")
            elif args.predict:
                response = client.predict(
                    args.benchmark,
                    args.config,
                    trace_length=args.trace_length,
                    seed=args.seed,
                )
                payload = response["payload"]
                print(f"benchmark      : {payload['benchmark']}")
                print(f"config         : {payload['config']}")
                print(f"cache          : {response['cache']}")
                print(f"digest         : {response['digest']}")
                print(f"via            : {payload['via']}")
                print(f"IPC            : {payload['ipc']:.2f}")
                print(f"L2 hit rate    : {payload['l2_hit_rate']:.3f}")
                print(f"L2 dynamic J   : {payload['l2_dynamic_energy_j']:.3e}")
            else:
                response = client.simulate(
                    args.benchmark,
                    args.config,
                    trace_length=args.trace_length,
                    seed=args.seed,
                    engine=args.engine,
                    shards=args.shards,
                )
                payload = response["payload"]
                print(f"benchmark      : {payload['workload']}")
                print(f"config         : {payload['config']}")
                print(f"cache          : {response['cache']}")
                print(f"digest         : {response['digest']}")
                print(f"IPC            : {payload['ipc']:.2f}")
                print(f"L2 hit rate    : {payload['l2_hit_rate']:.3f}")
                print(f"L2 total W     : {payload['l2_total_power_w']:.4f}")
            if args.json:
                from repro.io import write_json_atomic

                write_json_atomic(response if not args.stats else stats, args.json)
                print(f"wrote {args.json}")
    except ServiceConnectionError as exc:
        print(f"repro-sttgpu submit: {exc}", file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"repro-sttgpu submit: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.errors import SurrogateError
    from repro.surrogate import PREDICTED_METRICS, SurrogateOracle
    from repro.telemetry import ResultCache

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    oracle = SurrogateOracle(cache=cache)
    try:
        prediction = oracle.predict(
            args.config, args.benchmark,
            trace_length=args.trace_length, seed=args.seed,
        )
    except SurrogateError as exc:
        print(f"repro-sttgpu predict: {exc}", file=sys.stderr)
        return 2
    print(f"benchmark      : {prediction['benchmark']}")
    print(f"config         : {prediction['config']}")
    print(f"trace length   : {prediction['trace_length']} (seed {prediction['seed']})")
    print(f"via            : {prediction['via']}")
    print(f"IPC            : {prediction['ipc']:.2f}")
    print(f"L1 hit rate    : {prediction['l1_hit_rate']:.3f}")
    print(f"L2 hit rate    : {prediction['l2_hit_rate']:.3f}")
    print(f"L2 dynamic J   : {prediction['l2_dynamic_energy_j']:.3e}")
    print(f"L2 leakage W   : {prediction['l2_leakage_power_w']:.4f}")
    if args.compare:
        from repro import simulate

        workload = build_workload(
            args.benchmark, num_accesses=args.trace_length, seed=args.seed
        )
        truth = simulate(all_configs()[args.config], workload)
        print("vs trace-driven engine:")
        for metric in PREDICTED_METRICS:
            actual = getattr(truth, metric)
            predicted = prediction[metric]
            if actual:
                err = abs(predicted - actual) / abs(actual)
                print(f"  {metric:<22}: {actual:.4g} (rel err {err:.2%})")
            else:
                print(f"  {metric:<22}: {actual:.4g} (predicted {predicted:.4g})")
    if args.json:
        from repro.io import write_json_atomic

        write_json_atomic(prediction, args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_configs(_args: argparse.Namespace) -> int:
    from repro.config import render_table2

    print(render_table2())
    return 0


def _cmd_suite(_args: argparse.Namespace) -> int:
    print(f"{'benchmark':<15}{'region':<8}{'writes':<8}description")
    print("-" * 78)
    for name in suite_names():
        profile = PROFILES[name]
        print(
            f"{name:<15}{profile.region:<8}"
            f"{profile.write_fraction:<8.2f}{profile.description}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-sttgpu",
        description="STT-RAM GPU last-level cache reproduction (DAC 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    p_exp.add_argument("names", nargs="*", help=f"subset of {EXPERIMENTS}")
    p_exp.add_argument("--trace-length", type=int, default=DEFAULT_TRACE_LENGTH)
    p_exp.add_argument("--benchmarks", nargs="*", default=None)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="fan jobs out over N worker processes (default 1)")
    p_exp.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="content-keyed result cache directory")
    p_exp.add_argument("--no-cache", action="store_true",
                       help="ignore the result cache even if --cache-dir is set")
    p_exp.add_argument("--manifest", metavar="FILE", default=None,
                       help="write the run telemetry manifest to FILE")
    p_exp.add_argument("--json", metavar="FILE", default=None,
                       help="also write results to FILE as JSON")
    p_exp.add_argument("--bars", action="store_true",
                       help="also render ASCII bar charts per column")
    p_exp.set_defaults(func=_cmd_experiments)

    p_sim = sub.add_parser("simulate", help="run one benchmark on one config")
    p_sim.add_argument("benchmark", choices=suite_names())
    p_sim.add_argument("config", help="baseline | stt-baseline | C1 | C2 | C3")
    p_sim.add_argument("--trace-length", type=int, default=DEFAULT_TRACE_LENGTH)
    p_sim.add_argument("--seed", type=int, default=0)
    from repro.engine import ENGINES

    p_sim.add_argument("--engine", choices=ENGINES, default=None,
                       help="replay engine (default: soa, or object with "
                            "--trace; see docs/engine.md)")
    p_sim.add_argument("--shards", type=int, default=None, metavar="N",
                       help="bank shards for --engine sharded (power of "
                            "two, <= L2 banks, default 4; see "
                            "docs/sharding.md)")
    p_sim.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker processes for --engine sharded "
                            "(default: min(shards, usable CPUs))")
    p_sim.add_argument("--trace", action="store_true",
                       help="collect an execution trace (Chrome/Perfetto JSON)")
    p_sim.add_argument("--trace-sample", type=int, default=1, metavar="N",
                       help="record every Nth timeline event per event name "
                            "(counters stay exact; default 1)")
    p_sim.add_argument("--trace-out", metavar="FILE", default="trace.json",
                       help="trace output path (default trace.json)")
    p_sim.add_argument("--manifest", metavar="FILE", default=None,
                       help="with --trace: also write a telemetry manifest "
                            "embedding the trace summary")
    p_sim.set_defaults(func=_cmd_simulate)

    from repro.faults.campaign import CAMPAIGNS
    from repro.faults.invariants import DEFAULT_CHECK_INTERVAL

    p_inj = sub.add_parser(
        "inject", help="run a fault-injection campaign with invariant checks"
    )
    p_inj.add_argument("campaign", choices=sorted(CAMPAIGNS),
                       help="campaign to run (see docs/faults.md)")
    p_inj.add_argument("--seed", type=int, default=0,
                       help="fault/workload seed; same seed => identical report")
    p_inj.add_argument("--trace-length", type=int, default=None,
                       help="override the campaign's pinned trace length")
    p_inj.add_argument("--check-interval", type=int,
                       default=DEFAULT_CHECK_INTERVAL, metavar="N",
                       help="trace records per invariant-check batch "
                            f"(default {DEFAULT_CHECK_INTERVAL})")
    p_inj.add_argument("--out", metavar="FILE", default=None,
                       help="write the JSON campaign report to FILE")
    p_inj.set_defaults(func=_cmd_inject)

    from repro.oracle.mutants import MUTANTS

    p_diff = sub.add_parser(
        "diff", help="lockstep-diff the optimized L2 against the naive oracle"
    )
    p_diff.add_argument("benchmark", choices=suite_names())
    p_diff.add_argument("--config", default="C1",
                        help="two-part config: C1 | C2 | C3 | oracle-small "
                             "(default C1)")
    p_diff.add_argument("--seed", type=int, default=0,
                        help="workload seed; same seed => identical report")
    p_diff.add_argument("--accesses", type=int, default=4000,
                        help="lockstep access budget (default 4000)")
    p_diff.add_argument("--dt", type=float, default=None, metavar="SECONDS",
                        help="lockstep timestep (default 2e-6, one LR "
                             "refresh-tick of pressure per access)")
    p_diff.add_argument("--shrink", action="store_true",
                        help="on divergence, reduce the input to a 1-minimal "
                             "reproducing access sequence (ddmin)")
    p_diff.add_argument("--mutant", default=None, choices=sorted(MUTANTS),
                        help="run a deliberately broken DUT variant "
                             "(oracle self-test / shrinking demo)")
    p_diff.add_argument("--engine", choices=("object", "soa"), default="object",
                        help="which production L2 backend to diff against "
                             "the naive reference (default object; "
                             "see docs/engine.md)")
    p_diff.add_argument("--out", metavar="FILE", default=None,
                        help="write the JSON divergence report to FILE")
    p_diff.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write a Chrome/Perfetto trace with the "
                             "oracle.divergence event on the DUT timeline")
    p_diff.set_defaults(func=_cmd_diff)

    from repro.service.protocol import DEFAULT_PORT
    from repro.service.server import DEFAULT_DRAIN_TIMEOUT_S

    p_srv = sub.add_parser(
        "serve", help="run the simulation service (see docs/service.md)"
    )
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"TCP port; 0 binds an ephemeral port and "
                            f"announces it (default {DEFAULT_PORT})")
    p_srv.add_argument("--store-dir", metavar="DIR", default=None,
                       help="shared result store directory (default: a "
                            "temporary directory, discarded on exit); "
                            "share one DIR with --cache-dir batteries to "
                            "share their key space")
    p_srv.add_argument("--max-entries", type=int, default=None, metavar="N",
                       help="LRU-evict the store beyond N entries "
                            "(default: unbounded)")
    p_srv.add_argument("--max-bytes", type=int, default=None, metavar="N",
                       help="LRU-evict the store beyond N payload bytes "
                            "(default: unbounded)")
    p_srv.add_argument("--pool-shards", type=int, default=2, metavar="N",
                       help="worker pool shards; jobs route by digest "
                            "(default 2)")
    p_srv.add_argument("--drain-timeout", type=float,
                       default=DEFAULT_DRAIN_TIMEOUT_S, metavar="SECONDS",
                       help="max seconds a draining shutdown waits for "
                            "in-flight jobs "
                            f"(default {DEFAULT_DRAIN_TIMEOUT_S:g})")
    p_srv.add_argument("--log", metavar="FILE", default=None,
                       help="tee lifecycle log lines to FILE (CI uploads "
                            "this artifact on failure)")
    p_srv.set_defaults(func=_cmd_serve)

    p_sub = sub.add_parser(
        "submit", help="submit one request to a running service"
    )
    p_sub.add_argument("benchmark", nargs="?", default=None,
                       help=f"benchmark to simulate (one of {suite_names()})")
    p_sub.add_argument("config", nargs="?", default=None,
                       help="config to simulate on (see repro-sttgpu configs)")
    p_sub.add_argument("--host", default="127.0.0.1",
                       help="server address (default 127.0.0.1)")
    p_sub.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"server port (default {DEFAULT_PORT})")
    p_sub.add_argument("--experiment", metavar="NAME", default=None,
                       help=f"run a whole experiment: one of {EXPERIMENTS}")
    p_sub.add_argument("--predict", action="store_true",
                       help="ask the server's analytical surrogate instead "
                            "of running the simulation (docs/surrogate.md)")
    p_sub.add_argument("--ping", action="store_true",
                       help="round-trip a ping and exit")
    p_sub.add_argument("--stats", action="store_true",
                       help="print the server stats document as JSON")
    p_sub.add_argument("--shutdown", action="store_true",
                       help="ask the server to drain and exit")
    p_sub.add_argument("--trace-length", type=int, default=None,
                       help=f"accesses to replay (default {DEFAULT_TRACE_LENGTH})")
    p_sub.add_argument("--seed", type=int, default=0)
    p_sub.add_argument("--engine", choices=ENGINES, default=None,
                       help="replay engine (default: soa where supported)")
    p_sub.add_argument("--shards", type=int, default=None, metavar="N",
                       help="bank shards for --engine sharded")
    p_sub.add_argument("--timeout", type=float, default=600.0,
                       metavar="SECONDS",
                       help="socket timeout per operation (default 600)")
    p_sub.add_argument("--json", metavar="FILE", default=None,
                       help="also write the full response to FILE as JSON")
    p_sub.set_defaults(func=_cmd_submit)

    p_pred = sub.add_parser(
        "predict", help="instant surrogate estimate (see docs/surrogate.md)"
    )
    p_pred.add_argument("benchmark", choices=suite_names())
    p_pred.add_argument("config", help="baseline | stt-baseline | C1 | C2 | C3")
    p_pred.add_argument("--trace-length", type=int, default=DEFAULT_TRACE_LENGTH)
    p_pred.add_argument("--seed", type=int, default=0)
    p_pred.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="content-keyed cache for anchor simulations and "
                             "workload features (shared with --cache-dir "
                             "batteries and the service store)")
    p_pred.add_argument("--compare", action="store_true",
                        help="also run the trace-driven engine and print "
                             "per-metric relative errors")
    p_pred.add_argument("--json", metavar="FILE", default=None,
                        help="also write the prediction to FILE as JSON")
    p_pred.set_defaults(func=_cmd_predict)

    p_cfg = sub.add_parser("configs", help="print Table 2")
    p_cfg.set_defaults(func=_cmd_configs)

    p_suite = sub.add_parser("suite", help="list the benchmark suite")
    p_suite.set_defaults(func=_cmd_suite)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
