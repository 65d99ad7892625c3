"""Tests for the constant/texture read-only caches and their routing."""

import pytest

from repro.errors import ConfigurationError
from repro.gpu.readonly import (
    CONST_CACHE_CONFIG,
    TEXTURE_CACHE_CONFIG,
    ReadOnlyCache,
    ROCacheConfig,
)
from repro.units import KB


class TestROCacheConfig:
    def test_table2_geometries(self):
        assert CONST_CACHE_CONFIG.capacity_bytes == 8 * KB
        assert CONST_CACHE_CONFIG.line_size == 128
        assert TEXTURE_CACHE_CONFIG.capacity_bytes == 12 * KB
        assert TEXTURE_CACHE_CONFIG.line_size == 64

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            ROCacheConfig(8 * KB + 1, 4, 128)


class TestReadOnlyCache:
    def test_miss_then_hit(self):
        cache = ReadOnlyCache(CONST_CACHE_CONFIG)
        first = cache.access(0x1000, now=0.0)
        assert first is not None and first.kind == "fetch"
        assert cache.access(0x1000, now=1e-9) is None

    def test_no_dirty_lines_ever(self):
        cache = ReadOnlyCache(TEXTURE_CACHE_CONFIG)
        for i in range(500):
            cache.access(i * 64, now=i * 1e-9)
        dirty = [b for _, _, b in cache.array.iter_blocks() if b.valid and b.dirty]
        assert dirty == []

    def test_fetch_line_aligned(self):
        cache = ReadOnlyCache(TEXTURE_CACHE_CONFIG)  # 64B lines
        request = cache.access(0x1033, now=0.0)
        assert request is not None and request.address == 0x1000

    def test_hit_rate(self):
        cache = ReadOnlyCache(CONST_CACHE_CONFIG)
        cache.access(0x0, now=0.0)
        cache.access(0x0, now=1e-9)
        assert cache.hit_rate == pytest.approx(0.5)


def make_workload_with_const():
    """A const/texture-heavy kernel: 40% of its 4000 accesses are
    read-only-cache reads, which no calibrated profile issues."""
    from repro.workloads.profiles import BenchmarkProfile
    from repro.workloads.generator import TraceGenerator
    from repro.workloads.trace import Workload

    profile = BenchmarkProfile(
        name="consty", region=1, description="const/tex heavy kernel",
        regs_per_thread=20, threads_per_block=256, compute_intensity=8.0,
        p_stream_read=0.30, p_hot_read=0.20, p_wws_write=0.10,
        p_const_read=0.20, p_texture_read=0.20,
    )
    trace = TraceGenerator(profile).generate(num_accesses=4000, seed=0)
    return Workload(name="consty", kernel=profile.kernel_descriptor(),
                    trace=trace), profile


class TestSimulatorRouting:
    def test_trace_carries_const_tex_fractions(self):
        workload, profile = make_workload_with_const()
        assert workload.trace.const_fraction == pytest.approx(0.20, abs=0.05)
        assert workload.trace.texture_fraction == pytest.approx(0.20, abs=0.05)

    def test_simulator_routes_to_ro_caches(self):
        from repro.config import baseline_sram
        from repro.gpu.simulator import GPUSimulator

        workload, _ = make_workload_with_const()
        sim = GPUSimulator(baseline_sram(), workload)
        sim.run()
        const_accesses = sum(c.array.stats.accesses for c in sim.const_caches)
        tex_accesses = sum(c.array.stats.accesses for c in sim.texture_caches)
        assert const_accesses > 0 and tex_accesses > 0
        # small shared constant bank: high hit rate once warm
        const_hits = sum(c.array.stats.hits for c in sim.const_caches)
        assert const_hits / const_accesses > 0.5
        # L1 never sees const/tex traffic
        l1_accesses = sum(l1.array.stats.accesses for l1 in sim.l1s)
        assert l1_accesses + const_accesses + tex_accesses == len(workload.trace)

    def test_existing_profiles_have_no_const_traffic(self):
        """The calibrated suite is untouched by the const/tex extension."""
        from repro.workloads import build_workload

        workload = build_workload("bfs", num_accesses=2000, seed=0)
        assert workload.trace.const_fraction == 0.0
        assert workload.trace.texture_fraction == 0.0
