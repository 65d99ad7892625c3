"""Compare two sets of benchmark result files.

    python3 bench/compare.py --base RUN [RUN ...] --new RUN [RUN ...]

Each RUN is a result document written by ``bench/run.py`` or a directory of
them (taken in file-name order, which is run order).  For every (workload,
metric) both sides' median and quartiles are printed.  End-to-end metrics
get a verdict against their bound in ``BENCHMARK.json``:

``worse``       every new run is worse than every base run and the medians
                differ by more than the bound; or no side spreads past the
                bound and the new median is worse by more than it;
``unresolved``  a side's interquartile range exceeds the bound (as a share
                of its median), unless every new run is better than every
                base run;
``better``      at least ten runs a side, the n-th new run beats the n-th
                base run in at least nine tenths of the pairs (ties count for
                neither), and the medians differ by more than the base
                interquartile range;
``unchanged``   otherwise.

The ``EXACT`` per-layer metrics are simulated statistics: a seed gives the
same value on every run of the same code.  They are compared seed by seed
with a bound of zero: ``worse`` if any seed reads worse, ``better`` if none
does and one reads better, ``unchanged`` if all are equal, ``unresolved``
if the sides share no seed.

Run the two sides alternately so the n-th runs form a pair.  The exit code
is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.stats import quartiles, relative_spread  # noqa: E402

#: Pairs needed before a run set can be called better.
MIN_PAIRS_FOR_GAIN = 10
#: Share of pairs the new side must win to be called better.
WIN_SHARE = 0.9
#: Deterministic per-layer accuracy metrics, lower is better, bound zero:
#: the sharded engine's divergence from ``soa`` may not grow.
#: (``BENCHMARK.json`` gives per-layer metrics no bound field.)
EXACT = (
    "shard.max_err_pct",
    "shard.err.ipc_pct",
    "shard.err.l2_hit_rate_pct",
    "shard.err.l2_dynamic_energy_pct",
    "shard.err.avg_read_latency_pct",
    "shard.err.dram_accesses_pct",
)

#: ``(workload, traced, metric) -> [(seed, value)]``, one entry per run.
Series = Dict[Tuple[str, bool, str], List[Tuple[int, float]]]


def result_files(arguments: Sequence[Path]) -> List[Path]:
    """Expand directories into their ``*.json`` files, in name order."""
    files: List[Path] = []
    for path in arguments:
        files.extend(sorted(path.glob("*.json")) if path.is_dir() else [path])
    return files


def load_series(files: Sequence[Path]) -> Series:
    """Every metric's ``(seed, value)`` per run, in run order."""
    series: Series = {}
    for path in files:
        document = json.loads(path.read_text())
        for workload, entry in document["workloads"].items():
            for metric, value in entry["metrics"].items():
                key = (workload, bool(document["trace"]), metric)
                series.setdefault(key, []).append((document["seed"], value["value"]))
    return series


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> str:
    """One end-to-end verdict (see the module docstring)."""
    lower = better == "lower"

    def beats(a: float, b: float) -> bool:
        return a < b if lower else a > b

    base_median = statistics.median(base)
    new_median = statistics.median(new)
    worse_by = (new_median - base_median) / abs(base_median) * (1 if lower else -1)
    all_better = all(beats(n, b) for n in new for b in base)
    all_worse = all(beats(b, n) for n in new for b in base)
    pairs = list(zip(base, new))
    wins = sum(beats(n, b) for b, n in pairs)
    q1, _, q3 = quartiles(base)
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN and wins >= WIN_SHARE * len(pairs)
            and beats(new_median, base_median)
            and abs(new_median - base_median) > q3 - q1):
        return "better"
    if all_worse and worse_by > bound:
        return "worse"
    spread = max(relative_spread(base), relative_spread(new))
    if spread > bound and not all_better:
        return "unresolved"
    return "worse" if worse_by > bound else "unchanged"


def exact_verdict(base: Sequence[Tuple[int, float]],
                  new: Sequence[Tuple[int, float]]) -> str:
    """Seed-by-seed verdict on a deterministic, lower-is-better metric."""
    base_of = dict(base)
    pairs = [(base_of[seed], value) for seed, value in new if seed in base_of]
    if not pairs:
        return "unresolved"
    if any(n > b for b, n in pairs):
        return "worse"
    return "better" if any(n < b for b, n in pairs) else "unchanged"


def compare(base: Series, new: Series, spec: Dict) -> List[Dict]:
    """One row per (workload, traced, metric) present on both sides."""
    rules = {e["name"]: e for e in spec["end_to_end"]}
    rows = []
    for key in sorted(base.keys() & new.keys()):
        workload, traced, metric = key
        base_values = [value for _, value in base[key]]
        new_values = [value for _, value in new[key]]
        row = {
            "workload": workload, "traced": traced, "metric": metric,
            "base": quartiles(base_values), "new": quartiles(new_values),
            "runs": (len(base_values), len(new_values)),
            "verdict": "-",
        }
        rule = rules.get(metric) if not traced else None
        if rule is not None:
            row["verdict"] = verdict(base_values, new_values, rule["better"],
                                     rule["bound"])
            row["bound"] = rule["bound"]
            row["spread"] = max(relative_spread(base_values),
                                relative_spread(new_values))
        elif traced and metric in EXACT:
            row["verdict"] = exact_verdict(base[key], new[key])
            row["bound"] = 0.0
        rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True,
                        help="result files or directories of the reference runs")
    parser.add_argument("--new", type=Path, nargs="+", required=True,
                        help="result files or directories of the runs compared")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load_series(result_files(args.base)),
                   load_series(result_files(args.new)), spec)
    print(f"{'workload':15s} {'metric':32s} {'runs':>6s} "
          f"{'base median [q1, q3]':>32s} {'new median [q1, q3]':>32s} "
          f"{'spread':>7s} {'bound':>6s} verdict")
    for row in rows:
        b1, bm, b3 = row["base"]
        n1, nm, n3 = row["new"]
        label = row["metric"] + (" (traced)" if row["traced"] else "")
        runs = f"{row['runs'][0]}/{row['runs'][1]}"
        spread = f"{row['spread']:.1%}" if "spread" in row else "-"
        bound = f"{row['bound']:.0%}" if "bound" in row else "-"
        print(f"{row['workload']:15s} {label:32s} {runs:>6s} "
              f"{f'{bm:.5g} [{b1:.5g}, {b3:.5g}]':>32s} "
              f"{f'{nm:.5g} [{n1:.5g}, {n3:.5g}]':>32s} "
              f"{spread:>7s} {bound:>6s} {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
