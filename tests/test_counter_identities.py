"""Integer identities between replay counters, held on the object engine.

The ``soa`` fused loop does not count what these identities determine; it
derives those counters after the loop (docs/engine.md, "Counter fold").
The object engine counts every one of them directly, so each identity is
checked there: a model change that breaks one fails here instead of
silently skewing the ``soa`` counters.  Configs are small two-part L2s
(sequential or parallel search, one- to four-line swap buffers, write
thresholds 1-3) and small uniform L2s, under time dilations from 0.1,
where swap buffers overflow, to 1e4, where LR lines are refreshed and lost.
"""

from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

from repro.config import L2Config
from repro.engine import make_simulator
from repro.oracle import pressure_config
from repro.workloads import build_workload


def _config(kind, sequential, buffer_lines, threshold):
    config = pressure_config()
    if kind == "twopart":
        l2 = replace(
            config.l2,
            sequential_search=sequential,
            migration_buffer_lines=buffer_lines,
            write_threshold=threshold,
        )
    else:
        l2 = L2Config(kind=kind, main=config.l2.main)
    return replace(config, l2=l2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["twopart", "sram", "twopart", "stt"]),
    sequential=st.booleans(),
    buffer_lines=st.integers(1, 4),
    threshold=st.integers(1, 3),
    dilation=st.sampled_from([1e4, 0.1, 1e3, 1.0, 0.3, 10.0, 100.0]),
    profile=st.sampled_from(["bfs", "lbm", "backprop", "stencil", "sgemm"]),
    accesses=st.integers(300, 1500),
    seed=st.integers(0, 3),
)
# the cold-branch setups of tests/test_engine_parity.py: buffer overflows,
# LR victims returning to HR, LR refreshes and losses
@example(kind="twopart", sequential=True, buffer_lines=1, threshold=1,
         dilation=0.1, profile="lbm", accesses=4000, seed=0)
@example(kind="twopart", sequential=True, buffer_lines=1, threshold=1,
         dilation=1e4, profile="bfs", accesses=2000, seed=0)
def test_folded_counters_follow_from_the_counted_ones(
    kind, sequential, buffer_lines, threshold, dilation, profile, accesses,
    seed,
):
    config = _config(kind, sequential, buffer_lines, threshold)
    workload = build_workload(
        profile, num_accesses=accesses, num_sms=config.num_sms, seed=seed
    )
    simulator = make_simulator(
        config, workload, engine="object", time_dilation=dilation
    )
    simulator.run()
    sums = simulator.counters["rollup"]
    l2 = simulator.l2
    dram = simulator.dram.stats
    assert simulator.banks.stats.requests == sums["l2_requests"]
    assert dram.writes == sums["dram_writebacks"]
    if kind != "twopart":
        stats = l2.array.stats
        misses = stats.accesses - stats.hits
        assert dram.reads == stats.fills == misses
        assert l2.data_writes == stats.write_hits + stats.fills
        return

    lr, hr = l2.lr_array.stats, l2.hr_array.stats
    monitor, selector = l2.monitor.stats, l2.selector.stats
    migrations = monitor.migrations_triggered
    hr_misses = hr.accesses - hr.hits
    # LR is reached only by hits and filled only by migrations
    assert (lr.reads, lr.writes) == (lr.read_hits, lr.write_hits)
    assert lr.fills == migrations
    assert l2.migrations_to_lr == l2.hr_to_lr.stats.pushes == migrations
    # each LR victim returns to HR, where it is filled
    assert l2.returns_to_hr == l2.lr_to_hr.stats.pushes == lr.evictions_dirty
    assert hr.fills == hr_misses + lr.evictions_dirty
    assert monitor.writes_observed == hr.write_hits
    assert l2.lr_data_writes == lr.write_hits + lr.fills
    assert l2.hr_data_writes == hr.write_hits - migrations + hr.fills
    assert dram.reads == hr_misses
    assert selector.accesses == sums["l2_requests"]
    assert selector.first_probe_hits == lr.write_hits + hr.read_hits
    if sequential:
        assert selector.second_probes == \
            selector.accesses - selector.first_probe_hits
    else:
        assert selector.second_probes == selector.accesses
