"""Ablation benches for the design choices DESIGN.md calls out.

These are not in the paper's figures; they quantify the paper's prose
arguments: sequential search saves probe energy, the LR/HR retention pairing
balances refresh cost against data loss, and small migration buffers rarely
overflow.
"""

from repro.analysis.tables import format_table
from repro.config import config_c1
from repro.core.twopart import TwoPartSTTL2
from repro.experiments.common import replay_through_l1
from repro.workloads.suite import build_workload

BENCHMARKS = ("bfs", "kmeans", "mummergpu")
ABLATION_TRACE = 8000


def _build_c1_l2(**overrides) -> TwoPartSTTL2:
    l2cfg = config_c1().l2
    params = dict(
        hr_capacity_bytes=l2cfg.main.capacity_bytes,
        hr_associativity=l2cfg.main.associativity,
        lr_capacity_bytes=l2cfg.lr.capacity_bytes,
        lr_associativity=l2cfg.lr.associativity,
        line_size=l2cfg.line_size,
    )
    params.update(overrides)
    return TwoPartSTTL2(**params)


def test_bench_search_policy(run_once, show):
    """Sequential vs parallel tag search: energy vs latency tradeoff."""

    def sweep():
        rows = []
        for name in BENCHMARKS:
            energies = {}
            for sequential in (True, False):
                workload = build_workload(name, num_accesses=ABLATION_TRACE, seed=0)
                l2 = _build_c1_l2(sequential_search=sequential)
                replay_through_l1(workload, l2.access)
                key = "sequential" if sequential else "parallel"
                stats = l2.selector.stats
                energies[key] = (
                    l2.energy.demand_j,
                    stats.second_probes,
                    stats.first_probe_hits / stats.accesses,
                )
            rows.append([
                name,
                round(energies["sequential"][0] * 1e6, 3),
                round(energies["parallel"][0] * 1e6, 3),
                energies["sequential"][1],
                energies["parallel"][1],
                round(energies["sequential"][2], 3),
            ])
        return rows

    rows = run_once(sweep)
    show()
    show(format_table(
        ["benchmark", "seq_demand_uJ", "par_demand_uJ",
         "seq_2nd_probes", "par_2nd_probes", "seq_first_hit_rate"],
        rows,
    ))
    for row in rows:
        # sequential search must probe less and spend less demand energy
        assert row[1] < row[2], f"{row[0]}: sequential must save probe energy"
        assert row[3] < row[4]
        # the type-directed probe order must beat chance; misses always
        # cost a second probe, which bounds this below the L2 hit rate
        assert row[5] > 0.4


def test_bench_retention_pairing(run_once, show):
    """LR retention sweep: refresh cost vs expiry safety."""

    def sweep():
        rows = []
        for lr_retention in (10e-6, 40e-6, 200e-6):
            workload = build_workload("bfs", num_accesses=ABLATION_TRACE, seed=0)
            l2 = _build_c1_l2(lr_retention_s=lr_retention)
            replay_through_l1(workload, l2.access)
            rows.append([
                f"{lr_retention * 1e6:.0f}us",
                l2.refresh_writes,
                l2.data_losses,
                round(l2.energy.refresh_j * 1e9, 1),
            ])
        return rows

    rows = run_once(sweep)
    show()
    show(format_table(
        ["lr_retention", "refresh_writes", "data_losses", "refresh_nJ"], rows
    ))
    refreshes = [row[1] for row in rows]
    # shorter retention must refresh at least as often
    assert refreshes[0] >= refreshes[-1]
    # the architecture must never lose data at any swept retention
    assert all(row[2] == 0 for row in rows)


def test_bench_buffer_depth(run_once, show):
    """Migration-buffer depth: overflow (forced write-back) rate."""

    def sweep():
        rows = []
        for depth in (2, 5, 20):
            workload = build_workload("bfs", num_accesses=ABLATION_TRACE, seed=0)
            l2 = _build_c1_l2(buffer_lines=depth)
            replay_through_l1(workload, l2.access)
            overflows = (
                l2.hr_to_lr.stats.overflows + l2.lr_to_hr.stats.overflows
            )
            pushes = l2.hr_to_lr.stats.pushes + l2.lr_to_hr.stats.pushes
            rate = overflows / max(1, overflows + pushes)
            rows.append([depth, pushes, overflows, round(rate, 4)])
        return rows

    rows = run_once(sweep)
    show()
    show(format_table(
        ["buffer_lines", "pushes", "overflows", "overflow_rate"], rows
    ))
    # deeper buffers overflow no more often than shallow ones
    assert rows[-1][3] <= rows[0][3]
    # the paper's ~20-line buffer keeps forced write-backs around the ~1%
    # worst case it reports
    assert rows[-1][3] < 0.02
