"""Parallel experiment execution: job decomposition, fan-out, merge.

Job-decomposition contract
--------------------------
Every experiment decomposes into independent **jobs** — one
:class:`JobSpec` per ``(kind, benchmark, trace_length, seed)`` — whose
payloads are the JSON-safe dicts returned by the experiment modules'
``compute`` functions.  :func:`decompose` produces the specs in
deterministic order, :func:`execute_job` runs one spec anywhere (worker
process, cache-warming script, this process), and :func:`merge_experiment`
folds the payloads back through the module's ``merge`` in decomposition
order, so the merged :class:`ExperimentResult` is byte-identical at the
same seed regardless of worker count, scheduling order, or whether
payloads came from the cache.

Experiments intentionally share job kinds: ``fig8``, ``regions`` and
``variance`` share ``fig8sim``; ``fig4``, ``fig5``, ``fig6`` and
``energy`` share ``c1``, the one C1 characterization replay per
benchmark, which ``fig4`` and ``fig5`` merge with their own sweep jobs.
The runner executes each unique spec once and fans its payload out to
every experiment that needs it.

:func:`run_battery` is the orchestrator: it dedupes specs across the
requested experiments, serves what it can from a
:class:`~repro.telemetry.ResultCache`, executes the rest on a
``concurrent.futures.ProcessPoolExecutor`` (``jobs=1`` stays in-process),
and records one :class:`~repro.telemetry.JobRecord` per unique job.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.experiments import (
    energy, fig3, fig4, fig5, fig6, fig8, regions, scaling, table1, table2,
    variance,
)
from repro.experiments.common import DEFAULT_TRACE_LENGTH, ExperimentResult
from repro.telemetry import (
    CACHE_SCHEMA_VERSION,
    JobRecord,
    ResultCache,
    RunTelemetry,
    config_fingerprint,
    content_key,
)
from repro.workloads.suite import suite_names


@dataclass(frozen=True)
class JobSpec:
    """One independent unit of experiment work.

    ``kind`` selects the compute function; ``benchmark``/``trace_length``/
    ``seed`` are ``None`` for whole-table jobs (``table1``/``table2``)
    that do not depend on them.
    """

    kind: str
    benchmark: Optional[str]
    trace_length: Optional[int]
    seed: Optional[int]


#: Per-benchmark compute function for each job kind.
_COMPUTE = {
    "fig3": fig3.compute,
    "fig4": fig4.compute,
    "fig5": fig5.compute,
    "c1": fig6.compute,
    "fig8sim": fig8.compute,
    "scaling": scaling.compute,
}

#: Each per-benchmark experiment's merge and the job kinds it merges, in
#: argument order: ``merge(names, kind_1_payloads, ...)``, each payload
#: list in benchmark order (fig8sim and c1 are shared; variance's merge
#: takes per-seed payloads).
_EXPERIMENTS = {
    "fig3": (fig3.merge, ("fig3",)),
    "fig4": (fig4.merge, ("fig4", "c1")),
    "fig5": (fig5.merge, ("fig5", "c1")),
    "fig6": (fig6.merge, ("c1",)),
    "fig8": (fig8.merge, ("fig8sim",)),
    "regions": (regions.merge, ("fig8sim",)),
    "variance": (variance.merge, ("fig8sim",)),
    "scaling": (scaling.merge, ("scaling",)),
    "energy": (energy.merge, ("c1",)),
}


def resolve_benchmarks(
    experiment: str, benchmarks: Optional[Iterable[str]]
) -> List[str]:
    """The benchmarks an experiment runs: ``benchmarks``, else its default."""
    if benchmarks is not None:
        return list(benchmarks)
    if experiment == "scaling":
        return list(scaling.DEFAULT_BENCHMARKS)
    return suite_names()


def decompose(
    experiment: str,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    benchmarks: Optional[Iterable[str]] = None,
    seed: int = 0,
) -> List[JobSpec]:
    """Split one experiment into its jobs, in deterministic order."""
    if experiment in ("table1", "table2"):
        return [JobSpec(experiment, None, None, None)]
    if experiment not in _EXPERIMENTS:
        raise ReproError(
            f"unknown experiment {experiment!r}; choose from "
            f"{sorted(_EXPERIMENTS) + ['table1', 'table2']}"
        )
    names = resolve_benchmarks(experiment, benchmarks)
    _, kinds = _EXPERIMENTS[experiment]
    seeds = variance.default_seeds(seed) if experiment == "variance" else (seed,)
    return [
        JobSpec(kind, name, trace_length, s)
        for kind in kinds
        for s in seeds
        for name in names
    ]


def job_descriptor(spec: JobSpec) -> Dict[str, Any]:
    """The content-hashed identity of a job (feeds the cache key)."""
    return {
        "cache_schema": CACHE_SCHEMA_VERSION,
        "kind": spec.kind,
        "benchmark": spec.benchmark,
        "trace_length": spec.trace_length,
        "seed": spec.seed,
        "config": config_fingerprint(),
    }


def job_key(spec: JobSpec) -> str:
    """Content key of one job: hash of :func:`job_descriptor`."""
    return content_key(job_descriptor(spec))


def execute_job(spec: JobSpec) -> Dict[str, Any]:
    """Run one job to its JSON-safe payload (any process, any order)."""
    if spec.kind == "table1":
        from repro.io import experiment_result_to_dict

        return experiment_result_to_dict(table1.run())
    if spec.kind == "table2":
        from repro.io import experiment_result_to_dict

        return experiment_result_to_dict(table2.run())
    try:
        compute = _COMPUTE[spec.kind]
    except KeyError:
        raise ReproError(f"unknown job kind {spec.kind!r}") from None
    assert spec.benchmark is not None and spec.trace_length is not None
    return compute(spec.benchmark, trace_length=spec.trace_length, seed=spec.seed)


def _execute_job_timed(spec: JobSpec) -> Tuple[JobSpec, Dict[str, Any], float, int]:
    """Worker entry point: payload plus wall time and worker pid."""
    start = time.perf_counter()
    payload = execute_job(spec)
    return spec, payload, time.perf_counter() - start, os.getpid()


#: The ``shared`` object of the pool this worker process serves.
_shared: Any = None


def _install_shared(shared: Any) -> None:
    """Pool initializer: keep ``fan_out``'s ``shared`` object for the jobs."""
    global _shared
    _shared = shared


def _with_shared(worker, item: Any) -> Any:
    """Run one job of a pool started with a ``shared`` object."""
    return worker(_shared, item)


def _pool_context():
    """The ``fork`` context where the platform offers one, else the default.

    Forked workers inherit the parent's pages, ``shared`` among them,
    instead of unpickling a copy of it.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def fan_out(
    worker, items: Sequence[Any], jobs: int, shared: Any = None
) -> List[Any]:
    """Run ``worker(item)`` over ``items`` on up to ``jobs`` processes.

    Results come back in **submission order** regardless of completion
    order — the determinism contract every merge in this codebase relies
    on.  ``jobs=1`` (or a single item) stays in-process, which keeps the
    parallel and serial paths byte-identical and debuggable.  ``worker``
    and each item must be picklable (a module-level function and
    plain-data arguments).

    With ``shared`` given, every call is ``worker(shared, item)`` and
    ``shared`` reaches each worker process once, at pool start: under
    ``fork`` it is inherited and never pickled, under ``spawn`` it is
    pickled once per worker, not once per item.

    This is the same fan-out the experiment battery uses; the sharded
    engine (:mod:`repro.shard`) reuses it for bank sub-jobs.
    """
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    items = list(items)
    if jobs > 1 and len(items) > 1:
        call = worker if shared is None else partial(_with_shared, worker)
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(items)),
            mp_context=_pool_context(),
            initializer=_install_shared,
            initargs=(shared,),
        ) as pool:
            futures = [pool.submit(call, item) for item in items]
            return [future.result() for future in futures]
    if shared is None:
        return [worker(item) for item in items]
    return [worker(shared, item) for item in items]


def merge_experiment(
    experiment: str,
    specs: Sequence[JobSpec],
    payloads: Mapping[JobSpec, Dict[str, Any]],
) -> ExperimentResult:
    """Deterministically fold job payloads back into one result.

    ``specs`` must be the exact list :func:`decompose` produced for this
    experiment; payload provenance (fresh, cached, remote worker) is
    irrelevant to the output.
    """
    if experiment in ("table1", "table2"):
        from repro.io import experiment_result_from_dict

        return experiment_result_from_dict(payloads[specs[0]])
    if experiment == "variance":
        seeds: List[int] = []
        by_seed: Dict[int, List[Dict[str, Any]]] = {}
        for spec in specs:
            assert spec.seed is not None
            if spec.seed not in by_seed:
                seeds.append(spec.seed)
                by_seed[spec.seed] = []
            by_seed[spec.seed].append(payloads[spec])
        names = [spec.benchmark for spec in specs if spec.seed == seeds[0]]
        return variance.merge(names, [(s, by_seed[s]) for s in seeds])
    merge, kinds = _EXPERIMENTS[experiment]
    names = [spec.benchmark for spec in specs if spec.kind == kinds[0]]
    by_kind = [
        [payloads[spec] for spec in specs if spec.kind == kind] for kind in kinds
    ]
    return merge(names, *by_kind)


def run_battery(
    experiments: Sequence[str],
    trace_length: int = DEFAULT_TRACE_LENGTH,
    benchmarks: Optional[Iterable[str]] = None,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    cache: Optional[ResultCache] = None,
) -> Tuple[Dict[str, ExperimentResult], RunTelemetry]:
    """Run a set of experiments with fan-out, caching and telemetry.

    Determinism guarantee: for any ``jobs`` value and any cache state, the
    returned results are the same at the same ``(trace_length,
    benchmarks, seed)`` — jobs are executed (or loaded) independently and
    merged in decomposition order by the experiment module's ``merge``.

    ``cache`` accepts a pre-built :class:`~repro.telemetry.ResultCache`
    (for example the simulation service's shared
    :class:`~repro.service.SharedResultStore`) and takes precedence over
    ``cache_dir``; both paths share one key space, so battery runs and the
    service serve each other's entries.

    Returns ``(results keyed by experiment name, run telemetry)``.
    """
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    benchmarks = list(benchmarks) if benchmarks is not None else None
    started = time.perf_counter()
    specs_by_experiment = {
        name: decompose(name, trace_length, benchmarks, seed)
        for name in experiments
    }

    # Dedup jobs across experiments (the fig8sim and c1 specs are shared).
    needed_by: Dict[JobSpec, List[str]] = {}
    for name, specs in specs_by_experiment.items():
        for spec in specs:
            needed_by.setdefault(spec, []).append(name)

    if cache is None and cache_dir and use_cache:
        cache = ResultCache(cache_dir)
    elif not use_cache:
        cache = None
    cache_dir = cache_dir if cache_dir else (
        str(cache.root) if cache is not None else None
    )
    telemetry = RunTelemetry(
        jobs=jobs,
        cache_dir=str(cache_dir) if cache_dir else None,
        cache_enabled=cache is not None,
        trace_length=trace_length,
        seed=seed,
        benchmarks=benchmarks,
        experiments=list(experiments),
    )

    payloads: Dict[JobSpec, Dict[str, Any]] = {}
    pending: List[JobSpec] = []
    for spec in needed_by:
        lookup_start = time.perf_counter()
        cached = cache.get(job_key(spec)) if cache is not None else None
        if cached is not None:
            payloads[spec] = cached
            telemetry.record(JobRecord(
                key=job_key(spec),
                kind=spec.kind,
                benchmark=spec.benchmark,
                trace_length=spec.trace_length,
                seed=spec.seed,
                experiments=list(needed_by[spec]),
                worker=os.getpid(),
                wall_time_s=time.perf_counter() - lookup_start,
                cache_hit=True,
                counters=dict(cached.get("counters", {})),
            ))
        else:
            pending.append(spec)

    outcomes = fan_out(_execute_job_timed, pending, jobs)

    for spec, payload, wall_time, worker in outcomes:
        payloads[spec] = payload
        if cache is not None:
            cache.put(job_key(spec), job_descriptor(spec), payload)
        telemetry.record(JobRecord(
            key=job_key(spec),
            kind=spec.kind,
            benchmark=spec.benchmark,
            trace_length=spec.trace_length,
            seed=spec.seed,
            experiments=list(needed_by[spec]),
            worker=worker,
            wall_time_s=wall_time,
            cache_hit=False,
            counters=dict(payload.get("counters", {})),
        ))

    results = {
        name: merge_experiment(name, specs_by_experiment[name], payloads)
        for name in experiments
    }
    telemetry.wall_time_s = time.perf_counter() - started
    return results, telemetry
