"""Tests for the butterfly NoC and DRAM models."""

import pytest

from repro.errors import ConfigurationError
from repro.gpu.dram import DRAMModel
from repro.gpu.interconnect import ButterflyNoC


class TestButterflyNoC:
    def test_stage_count(self):
        noc = ButterflyNoC(num_sources=15, num_destinations=8, radix=2)
        assert noc.num_stages == 4  # ceil(log2(15))

    def test_traversal_includes_serialization(self):
        noc = ButterflyNoC()
        empty = noc.traversal_cycles(0)
        payload = noc.traversal_cycles(256)
        assert payload == pytest.approx(empty + 256 / noc.channel_bytes_per_cycle)

    def test_round_trip(self):
        noc = ButterflyNoC()
        rt = noc.round_trip_cycles(request_bytes=8, response_bytes=256)
        assert rt == pytest.approx(
            noc.traversal_cycles(8) + noc.traversal_cycles(256)
        )

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            ButterflyNoC(radix=1)
        with pytest.raises(ConfigurationError):
            ButterflyNoC(num_sources=0)
        with pytest.raises(ConfigurationError):
            ButterflyNoC().traversal_cycles(-1)


class TestDRAMModel:
    def test_cold_read_pays_full_latency(self):
        dram = DRAMModel()
        latency = dram.access(0x0, is_write=False, now=0.0)
        assert latency == pytest.approx(dram.base_latency_s)

    def test_row_hit_is_cheaper(self):
        dram = DRAMModel(row_size=2048, num_channels=6, line_size=256)
        # 0x0 and 0x600 share channel 0 (6 lines apart) and row 0
        dram.access(0x0, is_write=False, now=0.0)
        latency = dram.access(0x600, is_write=False, now=1e-5)
        assert latency < dram.base_latency_s
        assert dram.stats.row_hits == 1

    def test_row_conflict_pays_full(self):
        dram = DRAMModel(row_size=2048)
        dram.access(0x0, is_write=False, now=0.0)
        latency = dram.access(0x10000, is_write=False, now=1e-5)
        assert latency >= dram.base_latency_s

    def test_queueing_under_load(self):
        dram = DRAMModel(num_channels=1)
        first = dram.access(0x0, is_write=False, now=0.0)
        second = dram.access(0x10000, is_write=False, now=0.0)
        assert second > first

    def test_queue_wait_capped(self):
        dram = DRAMModel(num_channels=1, max_queue_wait_factor=1.0)
        for i in range(200):
            latency = dram.access(i * 0x10000, is_write=False, now=0.0)
        assert latency <= dram.base_latency_s * 2 + dram.service_time_s

    def test_writes_do_not_block_reads(self):
        """Writes drain from a low-priority queue (GPU MC behaviour)."""
        dram = DRAMModel(num_channels=1)
        for i in range(50):
            dram.access(i * 0x10000, is_write=True, now=0.0)
        read = dram.access(0x5000000, is_write=False, now=0.0)
        assert read == pytest.approx(dram.base_latency_s)

    def test_writes_counted_in_traffic(self):
        dram = DRAMModel()
        dram.access(0x0, is_write=True, now=0.0)
        dram.access(0x0, is_write=False, now=0.0)
        assert dram.stats.writes == 1
        assert dram.stats.reads == 1
        assert dram.stats.accesses == 2

    def test_channel_interleaving(self):
        dram = DRAMModel(num_channels=6, line_size=256)
        assert dram._channel(0) == 0
        assert dram._channel(256) == 1
        assert dram._channel(6 * 256) == 0

    def test_utilization_bounded(self):
        dram = DRAMModel()
        for i in range(100):
            dram.access(i * 256, is_write=False, now=0.0)
        assert 0.0 <= dram.utilization(1e-5) <= 1.0

    def test_utilization_idle_gap_regression(self):
        """One late request must not read as a ~100% busy channel.

        The pre-fix implementation summed clamped ``_busy_until``
        *timestamps*: a single request served at t=0.9s against a 1s run
        reported the channel ~90% busy although it was busy for one
        service time.  Utilization must reflect accumulated service time.
        """
        dram = DRAMModel(num_channels=2)
        elapsed = 1.0
        dram.access(0x0, is_write=False, now=0.9)  # channel 0, one transfer
        expected = dram.service_time_s / (dram.num_channels * elapsed)
        assert dram.utilization(elapsed) == pytest.approx(expected)
        assert dram.utilization(elapsed) < 0.01

    def test_utilization_excludes_unfinished_tail(self):
        """Service queued past the measurement horizon is not busy time."""
        dram = DRAMModel(num_channels=1)
        for i in range(50):
            dram.access(i * 0x10000, is_write=False, now=0.0)
        # horizon cut mid-queue: busy time can never exceed the horizon
        horizon = 10 * dram.service_time_s
        assert dram.utilization(horizon) == pytest.approx(1.0)

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            DRAMModel(num_channels=0)
        with pytest.raises(ConfigurationError):
            DRAMModel(row_hit_latency_s=1.0, base_latency_s=0.5)
        with pytest.raises(ConfigurationError):
            DRAMModel(bandwidth_bytes_per_s=0)
