"""The benchmark's own checks, on every workload at tiny sizes.

Run with ``python3 -m pytest bench/tests``.
"""

import json
import time

import pytest

from bench import compare, run, workloads
from bench.layers import CALLS, SELF_S, LayerTrace, ObjectSplit, wrap_components
from bench.stats import tail_percentile

SPEC = json.loads(run.SPEC_PATH.read_text())

TINY = {
    "replay-twopart": lambda: workloads.ReplayWorkload(
        [("lbm", "C1"), ("sgemm", "C1")], 1500, warmup_length=200),
    "replay-uniform": lambda: workloads.ReplayWorkload(
        [("nn", "baseline"), ("streamcluster", "stt-baseline")], 1500,
        warmup_length=200),
    "scale-sharded": lambda: workloads.ShardedWorkload(
        "bfs", "C1", 3000, warmup_length=500),
    "battery": lambda: workloads.BatteryWorkload(
        300, benchmarks=["nn", "bfs"], warmup_length=100),
    "service-mixed": lambda: workloads.ServiceWorkload(
        trace_length=500, block=20, colds=2, predicts=5, split_scenarios=2,
        warmup_length=200),
}


def test_tiny_table_covers_every_workload():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_metric_names_match_spec_and_checks_pass(name, trace, tmp_path):
    report = run.measure(TINY[name](), seed=3, seconds=0.01, trace=trace,
                         workdir=tmp_path, started=time.monotonic())
    metrics = run.complete_metrics(report["metrics"], SPEC, trace)
    expected = [e["name"] for e in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(metrics) == expected
    # traced runs check the object-engine digest against soa on every trace
    assert report["attempted"] >= 1
    assert report["failed"] == 0, report["problems"]
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())
    else:
        # every workload replays at least one trace under the engine probe
        assert metrics["engine.replay_s"]["value"] > 0


def test_set_up_only_counts_from_the_given_start(tmp_path):
    started = time.monotonic()
    setup_s = run.set_up(TINY["replay-uniform"](), 0, tmp_path, started)
    assert 0 < setup_s <= time.monotonic() - started


def test_window_starts_no_call_it_cannot_finish():
    outcome = workloads.Outcome()
    samples, window_s = workloads.run_window(
        0.25, [lambda: time.sleep(0.1)], outcome)
    assert len(samples) == 2 and outcome.attempted == 2
    assert window_s < 0.25
    # every part runs once, however short the window
    samples, _ = workloads.run_window(
        0.0, [lambda: time.sleep(0.01), lambda: time.sleep(0.02)], outcome)
    assert [part for _, part, _, _ in samples] == [0, 1]


def test_best_rate_sums_the_fastest_call_of_every_part():
    samples = [(1, 0, 2.0, None), (2, 1, 3.0, None), (3, 0, 1.5, None),
               (4, 1, 4.0, None)]
    assert workloads.best_rate(samples, 2) == 1 / 4.5
    assert workloads.best_rate(samples[:1], 2) is None


def test_service_blocks_are_timed_from_reply_to_reply():
    service = workloads.ServiceWorkload(block=2)
    service.plan = [{}] * 6
    # blocks end at 3, 4 and (incomplete) never: times 3 and 1
    finished = {0: 1.0, 1: 3.0, 2: 3.5, 3: 4.0, 4: 4.5}
    assert service._best_block_rate(finished, start=0.0) == 2 / 1.0
    assert service._best_block_rate({}, start=0.0) is None


def test_unknown_or_missing_metrics_are_refused():
    with pytest.raises(run.BenchError):
        run.complete_metrics({"no.such_metric": 1.0}, SPEC, trace=True)
    with pytest.raises(run.BenchError):
        run.complete_metrics({"best_ops_per_s": 1.0}, SPEC, trace=False)


@pytest.mark.parametrize("config", ["C1", "stt-baseline"])
def test_traced_object_digest_equals_untraced_soa(config):
    from repro import all_configs, build_workload, simulate
    from repro.benchmarks import result_digest

    cfg = all_configs()[config]
    workload = build_workload("sgemm", num_accesses=2000, seed=1)
    split = ObjectSplit(LayerTrace())
    assert split.add(cfg, workload, result_digest(simulate(cfg, workload)))
    assert split.metrics()["gpu.l1.calls"] == 2000


def test_instance_wrappers_are_removed_after_the_traced_run(tmp_path):
    import repro.engine
    from repro import all_configs, build_workload
    from repro.experiments import fig6, fig8
    from repro.workloads import suite

    config = all_configs()["C1"]
    sim = repro.engine.make_simulator(
        config, build_workload("lbm", num_accesses=1000, seed=0), engine="object")
    components = [*sim.l1s, sim.l2, sim.l2.refresh_engine, sim.banks, sim.dram]
    before = [set(vars(c)) for c in components]
    trace = LayerTrace()
    with trace.patches():
        wrap_components(trace, sim)
        assert "access" in vars(sim.l2)
        sim.run()
    assert [set(vars(c)) for c in components] == before
    assert trace.value("core.l2", CALLS) > 0

    original = repro.engine.make_simulator
    battery = workloads.BatteryWorkload(200, benchmarks=["nn"], warmup_length=100)
    run.measure(battery, 0, 0.01, True, tmp_path, time.monotonic())
    assert repro.engine.make_simulator is original
    assert fig8.build_workload is suite.build_workload
    assert fig6.build_workload is suite.build_workload
    assert "rewrite_interval_distribution" in vars(fig6)


def test_nested_wrapped_calls_leave_the_caller_only_its_self_time():
    class Component:
        def inner(self):
            time.sleep(0.02)

        def outer(self):
            self.inner()
            time.sleep(0.01)

    component = Component()
    trace = LayerTrace()
    with trace.patches():
        trace.wrap(component, "inner", "inner")
        trace.wrap(component, "outer", "outer")
        component.outer()
    assert vars(component) == {}
    assert 0.005 < trace.value("outer", SELF_S) < 0.02
    assert trace.value("inner", SELF_S) >= 0.02


@pytest.mark.parametrize("samples, expected", [
    (19, None),
    (20, 50.0),
    (100, 90.0),
    (999, 90.0),
    (1000, 99.0),
    (10_000, 99.9),
])
def test_tail_percentile_has_ten_samples_beyond(samples, expected):
    tail = tail_percentile([float(i) for i in range(samples)])
    if expected is None:
        assert tail is None
        return
    pct, value, beyond = tail
    assert pct == expected
    assert beyond >= 10
    assert sum(1 for i in range(samples) if i > value) == beyond


def _runs(center, spread, count=10):
    return [center * (1 + spread * ((i % 5) - 2) / 2) for i in range(count)]


@pytest.mark.parametrize("base, new, better, expected", [
    (_runs(100, 0.01), _runs(100.5, 0.01), "lower", "unchanged"),
    (_runs(100, 0.01), _runs(115, 0.01), "lower", "worse"),
    (_runs(100, 0.01), _runs(85, 0.01), "higher", "worse"),
    (_runs(100, 0.01), _runs(104, 0.3), "lower", "unresolved"),
    (_runs(100, 0.3), _runs(100, 0.01), "lower", "unresolved"),
    (_runs(100, 0.01), _runs(80, 0.01), "lower", "better"),
    (_runs(100, 0.01), _runs(120, 0.01), "higher", "better"),
    (_runs(100, 0.01, 5), _runs(80, 0.01, 5), "lower", "unchanged"),
    (_runs(100, 0.3), _runs(300, 0.3), "lower", "worse"),
    # every new run is worse, by less than the bound, but the spread is wider
    ([90, 99, 100, 100.5, 101], [101.5, 102, 103, 104, 130], "lower", "unresolved"),
])
def test_compare_verdicts(base, new, better, expected):
    assert compare.verdict(base, new, better, bound=0.1) == expected


@pytest.mark.parametrize("new, expected", [
    ([(1, 25.0), (2, 30.0)], "unchanged"),
    ([(2, 30.0), (1, 25.0), (9, 99.0)], "unchanged"),
    ([(1, 25.0), (2, 30.000001)], "worse"),
    ([(1, 24.0), (2, 30.0)], "better"),
    ([(3, 1.0)], "unresolved"),
])
def test_exact_metrics_are_compared_seed_by_seed(new, expected):
    assert compare.exact_verdict([(1, 25.0), (2, 30.0)], new) == expected


def test_compare_reads_result_documents(tmp_path):
    def document(path, seed, throughput, error):
        path.write_text(json.dumps({"seed": seed, "trace": False, "workloads": {
            "battery": {"metrics": {
                "best_ops_per_s": {"value": throughput, "unit": "1/s"}}}}}))
        path.with_suffix(".traced.json").write_text(json.dumps({
            "seed": seed, "trace": True, "workloads": {"scale-sharded": {
                "metrics": {"shard.max_err_pct": {"value": error, "unit": "%"}}}}}))

    for i in range(3):
        document(tmp_path / f"base-{i}.json", i, 100.0 + i, 25.0 + i)
        document(tmp_path / f"new-{i}.json", i, 50.0 + i, 25.0 + i + (i == 2))
    base = compare.load_series(compare.result_files(sorted(tmp_path.glob("base-*"))))
    new = compare.load_series(compare.result_files(sorted(tmp_path.glob("new-*"))))
    throughput, error = compare.compare(base, new, SPEC)
    assert (throughput["metric"], throughput["verdict"]) == ("best_ops_per_s", "worse")
    assert throughput["base"][1] == 101.0
    assert (error["metric"], error["verdict"]) == ("shard.max_err_pct", "worse")
