"""Replay loops decode the trace in bounded chunks.

Every replay loop (the ``soa`` and object engines and the
characterization replay :func:`repro.experiments.common.replay_through_l1`)
decodes the trace :data:`repro.workloads.trace.CHUNK_RECORDS` records at a
time.  These tests check that chunk boundaries change no result — with the
chunk shrunk to a small prime, so that boundaries fall everywhere — and
that replay memory no longer grows with the trace.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.workloads.trace as trace_module
from repro.benchmarks import result_digest
from repro.config import all_configs
from repro.engine import make_simulator
from repro.experiments.common import replay_through_l1
from repro.workloads import build_workload
from tests.pinned import BRANCH_DIGESTS, RESULT_DIGESTS, TRACE_DIGESTS
from tests.test_gpu_readonly import make_workload_with_const
from tests.test_workloads import moved_trace_digests

SMALL_CHUNK = 97


@pytest.fixture
def small_chunks(monkeypatch):
    """Shrink the chunk so that every replay crosses many boundaries."""
    monkeypatch.setattr(trace_module, "CHUNK_RECORDS", SMALL_CHUNK)


def _bfs_c1(accesses):
    config = all_configs()["C1"]
    return config, build_workload(
        "bfs", num_accesses=accesses, num_sms=config.num_sms, seed=0
    )


def test_chunks_cover_the_trace_in_order(small_chunks):
    _, workload = _bfs_c1(1000)
    trace = workload.trace
    chunks = list(trace.chunks())
    assert [len(sm) for sm, _, _ in chunks] == [SMALL_CHUNK] * 10 + [30]
    for column, index in ((trace.sm, 0), (trace.address, 1), (trace.flags, 2)):
        assert np.array_equal(
            np.concatenate([chunk[index] for chunk in chunks]), column
        )
    rows = list(trace.rows())
    assert len(rows) == len(trace)
    assert [address for _, address, _ in rows] == trace.address.tolist()


def test_generated_traces_do_not_depend_on_the_chunk_size(small_chunks):
    # the seed-3 pins cover every benchmark and length up to 25000 in
    # less than half the time all pins take at this chunk size
    keys = [key for key in TRACE_DIGESTS if key.endswith("/s3")]
    assert len(keys) == 64
    assert moved_trace_digests(keys) == []


@pytest.mark.parametrize("engine", ["soa", "object"])
def test_pinned_scenario_holds_across_chunk_boundaries(small_chunks, engine):
    config, workload = _bfs_c1(8000)
    result = make_simulator(config, workload, engine=engine).run()
    assert result_digest(result) == RESULT_DIGESTS["bfs/C1/8000/s0"]["exact"]


@pytest.mark.parametrize("engine", ["soa", "object"])
def test_read_only_branch_run_holds_across_chunk_boundaries(small_chunks, engine):
    workload, _ = make_workload_with_const()
    config = all_configs()["C1"]
    result = make_simulator(config, workload, engine=engine).run()
    assert result_digest(result) == BRANCH_DIGESTS["consty/C1/4000/s0"]


def test_l1_filter_stream_holds_across_chunk_boundaries(monkeypatch):
    _, workload = _bfs_c1(8000)
    streams = []
    for chunk in (trace_module.CHUNK_RECORDS, SMALL_CHUNK):
        monkeypatch.setattr(trace_module, "CHUNK_RECORDS", chunk)
        calls = []
        replay_through_l1(workload, lambda *request: calls.append(request))
        streams.append(calls)
    assert streams[0] and streams[0] == streams[1]


#: Run in a fresh interpreter: resets the peak RSS (VmHWM) to the current
#: RSS right before each replay, before a million-access trace
#: generation and before its two-shard partition, and prints how far each
#: call raised it.
MEMORY_PROBE = """
import json
from repro.config import all_configs
from repro.engine import make_simulator
from repro.experiments.common import replay_through_l1
from repro.shard import partition_trace
from repro.workloads import build_workload

def status_mb(key):
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0

def growth_mb(call):
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")
    rss = status_mb("VmRSS")
    call()
    return status_mb("VmHWM") - rss

config = all_configs()["C1"]
workload = build_workload(
    "bfs", num_accesses=200_000, num_sms=config.num_sms, seed=0
)
replays = {
    "soa": growth_mb(make_simulator(config, workload, engine="soa").run),
    "replay_through_l1": growth_mb(
        lambda: replay_through_l1(workload, lambda *request: None)
    ),
}
del workload
built = []
build_mb = growth_mb(lambda: built.append(build_workload("bfs", 1_000_000)))
trace = built[0].trace
trace_mb = (trace.sm.nbytes + trace.address.nbytes + trace.flags.nbytes) / 2**20
partition_mb = growth_mb(lambda: built.append(partition_trace(trace, 256, 2)))
print(json.dumps({
    "replays": replays, "build_mb": build_mb, "trace_mb": trace_mb,
    "partition_mb": partition_mb,
}))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or not os.access("/proc/self/clear_refs", os.W_OK),
    reason="needs Linux /proc/self/clear_refs to reset the peak RSS",
)
def test_replay_memory_does_not_grow_with_the_trace():
    """At 200k accesses a whole-trace decode raised the peak by 15-24 MB;
    whole-trace generation temporaries raised a 1M-access build's peak
    by 48 MB for a 10.5 MB trace, and whole-trace owner, mask and remap
    temporaries raised its two-shard partition's by about 27 MB, where
    the sub-streams themselves take the trace's 10.5 MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    growth = json.loads(proc.stdout)
    for replay, grown_mb in growth["replays"].items():
        assert grown_mb < 8.0, (replay, grown_mb)
    assert growth["build_mb"] < growth["trace_mb"] + 8.0, growth
    assert growth["partition_mb"] < growth["trace_mb"] + 4.0, growth


#: Run in a fresh interpreter: builds a million-access trace, whose
#: generation leaves the peak RSS (VmHWM) above the RSS, then prints how
#: far a two-shard, two-worker sharded run raised the peak over the RSS
#: at the call.  The fan-out module is imported first, so that its
#: imports do not count against the run.
SHARDED_MEMORY_PROBE = """
import json
import repro.experiments.parallel
from repro.config import all_configs
from repro.shard import ShardedGPUSimulator
from repro.workloads import build_workload

def status_mb(key):
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0

config = all_configs()["C1"]
workload = build_workload(
    "bfs", num_accesses=1_000_000, num_sms=config.num_sms, seed=0
)
trace = workload.trace
trace_mb = (trace.sm.nbytes + trace.address.nbytes + trace.flags.nbytes) / 2**20
rss = status_mb("VmRSS")
ShardedGPUSimulator(config, workload, shards=2, workers=2).run()
print(json.dumps({"trace_mb": trace_mb, "run_mb": status_mb("VmHWM") - rss}))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="reads the peak RSS from Linux /proc/self/status",
)
def test_sharded_run_holds_no_sub_stream_in_the_parent():
    """When the parent cut every sub-stream and the pool pickled each one
    into its job, a 1M-access two-worker run raised the parent's peak by
    about twice the trace (10.5 MB); workers that inherit the trace and
    cut their own sub-streams leave it where the trace build set it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", SHARDED_MEMORY_PROBE],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    growth = json.loads(proc.stdout)
    assert growth["run_mb"] < growth["trace_mb"] / 2, growth
