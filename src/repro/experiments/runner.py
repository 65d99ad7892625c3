"""Run every experiment and print the paper-artifact tables.

The registry (:data:`EXPERIMENTS`) maps names to experiment modules;
:func:`run_experiment` executes one through the job decomposition in
:mod:`repro.experiments.parallel`, so the same entry point scales from a
serial in-process run (``jobs=1``, the default) to a process-pool fan-out
with an on-disk result cache.  ``python -m repro.experiments.runner`` is
``repro-sttgpu experiments``.

Determinism guarantees
----------------------
For fixed ``(trace_length, benchmarks, seed)`` the results are a pure
function of the configuration — independent of ``jobs``, of scheduling
order, and of whether payloads were computed or served from the cache.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.experiments.common import DEFAULT_TRACE_LENGTH, ExperimentResult
from repro.experiments.parallel import run_battery

#: Experiment registry: the paper's artifacts in paper order, then the
#: extensions (everything after "fig8" is not a paper figure).
EXPERIMENTS = ("table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig8",
               "regions", "scaling", "energy", "variance")


def run_experiment(
    name: str,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    benchmarks: Optional[Iterable[str]] = None,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
) -> ExperimentResult:
    """Run one experiment by name.

    ``jobs`` > 1 fans the experiment's jobs over worker processes;
    ``cache_dir`` enables the content-keyed result cache.  The result is
    identical for every ``jobs``/cache combination (see the module
    docstring's determinism guarantees).
    """
    results, _ = run_battery(
        [name],
        trace_length=trace_length,
        benchmarks=benchmarks,
        seed=seed,
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
    )
    return results[name]


if __name__ == "__main__":  # pragma: no cover
    import sys

    from repro.cli import main

    sys.exit(main(["experiments", *sys.argv[1:]]))
