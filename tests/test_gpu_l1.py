"""Tests for the GPU L1 write policies (the paper's Fig. 1-b).

Each case replays a tiny trace on SM 0 through the characterization
replay's L1 filter (:func:`repro.experiments.common.replay_through_l1`,
fills landing at once) and checks the L2 requests it issues.  A request is
``(line_address, is_write)``: a fetch is a read; a write-through and a
dirty write-back are writes.  The MSHR (deferred-fill) model the
simulators use is covered by ``test_gpu_l1_mshr.py``.
"""

import numpy as np
import pytest

from repro.config import L1Config, baseline_sram
from repro.experiments.common import replay_through_l1
from repro.gpu.kernel import KernelDescriptor
from repro.gpu.simulator import TIME_DILATION
from repro.workloads.trace import FLAG_LOCAL, FLAG_WRITE, Trace, Workload

GLOBAL_READ = 0
GLOBAL_WRITE = FLAG_WRITE
LOCAL_READ = FLAG_LOCAL
LOCAL_WRITE = FLAG_LOCAL | FLAG_WRITE

GEOMETRY = L1Config()
NUM_SETS = GEOMETRY.capacity_bytes // (GEOMETRY.associativity * GEOMETRY.line_size)


def stamped(records):
    """Every L2 request ``(address, is_write, now)`` of an SM-0 trace."""
    workload = Workload(
        name="tiny",
        kernel=KernelDescriptor("tiny"),
        trace=Trace(
            np.zeros(len(records), dtype=np.int16),
            np.array([address for address, _ in records], dtype=np.int64),
            np.array([flags for _, flags in records], dtype=np.uint8),
        ),
    )
    calls = []
    replay_through_l1(workload, lambda *request: calls.append(request))
    return calls


def requests(records):
    """The ``(address, is_write)`` L2 requests of an SM-0 trace."""
    return [(address, is_write) for address, is_write, _ in stamped(records)]


def conflicting(count, base=0x100000):
    """``count`` line addresses that all map to one L1 set."""
    return [base + i * NUM_SETS * GEOMETRY.line_size for i in range(count)]


class TestGlobalWrites:
    def test_global_write_miss_is_no_allocate(self):
        # the store is written through; the line is not installed, so a
        # later read still misses
        assert requests([(0x1000, GLOBAL_WRITE), (0x1000, GLOBAL_READ)]) == [
            (0x1000, True), (0x1000, False),
        ]

    def test_global_write_hit_is_write_evict(self):
        # fill, write through (dropping the L1 copy), then refetch
        assert requests([
            (0x1000, GLOBAL_READ), (0x1000, GLOBAL_WRITE), (0x1000, GLOBAL_READ),
        ]) == [(0x1000, False), (0x1000, True), (0x1000, False)]

    def test_global_write_never_leaves_dirty_line(self):
        lines = [i * GEOMETRY.line_size for i in range(50)]
        records = [(a, GLOBAL_READ) for a in lines]
        records += [(a, GLOBAL_WRITE) for a in lines]
        # stream far more lines than the L1 holds: any dirty resident
        # would surface as a write-back
        records += [(0x100000 + i * GEOMETRY.line_size, GLOBAL_READ)
                    for i in range(4 * NUM_SETS * GEOMETRY.associativity)]
        writes = [a for a, is_write in requests(records) if is_write]
        assert writes == lines

    def test_write_through_aligned_to_line(self):
        assert requests([(0x10AB, GLOBAL_WRITE)]) == [(0x1080, True)]  # 128B


class TestGlobalReads:
    def test_read_miss_fetches(self):
        assert requests([(0x2000, GLOBAL_READ)]) == [(0x2000, False)]

    def test_read_hit_generates_no_traffic(self):
        assert requests([(0x2000, GLOBAL_READ), (0x2000, GLOBAL_READ)]) == [
            (0x2000, False),
        ]

    def test_hit_rate_tracks(self):
        reads = [0x2000, 0x2000, 0x4000, 0x2000, 0x4000]
        fetches = requests([(a, GLOBAL_READ) for a in reads])
        assert fetches == [(0x2000, False), (0x4000, False)]
        assert 1 - len(fetches) / len(reads) == pytest.approx(0.6)


class TestLocalData:
    def test_local_write_allocates_and_fetches(self):
        # write-allocate: fetch the line and keep it dirty in L1, so
        # pushing it out of its set writes it back
        victim, *others = conflicting(GEOMETRY.associativity + 1)
        stream = requests(
            [(victim, LOCAL_WRITE)] + [(a, LOCAL_READ) for a in others]
        )
        assert stream[0] == (victim, False)
        assert (victim, True) in stream

    def test_local_write_hit_stays_in_l1(self):
        assert requests([(0x3000, LOCAL_WRITE), (0x3000, LOCAL_WRITE)]) == [
            (0x3000, False),
        ]

    def test_dirty_local_eviction_writes_back(self):
        lines = conflicting(GEOMETRY.associativity + 1)
        stream = requests([(a, LOCAL_WRITE) for a in lines])
        writebacks = [a for a, is_write in stream if is_write]
        assert writebacks == [lines[0]]
        # the write-back leaves before the fetch of the line replacing it
        assert stream[-2:] == [(lines[0], True), (lines[-1], False)]

    def test_writeback_request_is_write(self):
        lines = conflicting(GEOMETRY.associativity + 1)
        stream = requests(
            [(lines[0], LOCAL_WRITE)] + [(a, GLOBAL_READ) for a in lines[1:]]
        )
        assert (lines[0], True) in stream
        assert all(not is_write for a, is_write in stream if a != lines[0])


class TestStatsAccounting:
    def test_gpu_stats_partition(self):
        # global read, global write, local read, local write: each space
        # follows its own policy
        assert requests([
            (0x0, GLOBAL_READ), (0x0, GLOBAL_WRITE),
            (0x100, LOCAL_READ), (0x100, LOCAL_WRITE),
        ]) == [(0x0, False), (0x0, True), (0x100, False)]

    def test_array_stats_count_all_demand(self):
        # every record advances the clock by one dilated per-SM issue slot,
        # whether or not it reaches the L2
        config = baseline_sram()
        dt = (KernelDescriptor("tiny").compute_intensity / config.core_clock_hz
              / config.num_sms * TIME_DILATION)
        calls = stamped([
            (0x0, GLOBAL_READ), (0x0, GLOBAL_READ), (0x0, GLOBAL_WRITE),
        ])
        assert [(a, w) for a, w, _ in calls] == [(0x0, False), (0x0, True)]
        assert calls[0][2] == pytest.approx(dt)
        assert calls[1][2] == pytest.approx(3 * dt)
