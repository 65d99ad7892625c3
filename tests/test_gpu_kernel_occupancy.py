"""Tests for kernel descriptors, register file and SM occupancy."""

import pytest
from hypothesis import given, strategies as st

from repro.config import baseline_sram, config_c2
from repro.errors import ConfigurationError
from repro.gpu.kernel import KernelDescriptor
from repro.gpu.occupancy import compute_occupancy
from repro.gpu.regfile import RegisterFile


class TestKernelDescriptor:
    def test_warps_per_block_rounds_up(self):
        kernel = KernelDescriptor(name="k", threads_per_block=100)
        assert kernel.warps_per_block() == 4

    def test_regs_per_block(self):
        kernel = KernelDescriptor(name="k", regs_per_thread=48, threads_per_block=256)
        assert kernel.regs_per_block() == 12288

    def test_rejects_compute_intensity_below_one(self):
        with pytest.raises(ConfigurationError):
            KernelDescriptor(name="k", compute_intensity=0.5)

    def test_rejects_bad_resources(self):
        with pytest.raises(ConfigurationError):
            KernelDescriptor(name="k", regs_per_thread=0)
        with pytest.raises(ConfigurationError):
            KernelDescriptor(name="k", shared_mem_per_block=-1)


class TestRegisterFile:
    def test_capacity(self):
        assert RegisterFile(32768).capacity_bytes == 128 * 1024

    def test_area_scales_with_registers(self):
        small = RegisterFile(32768)
        large = RegisterFile(65536)
        assert large.area == pytest.approx(2 * small.area)

    def test_rejects_zero_registers(self):
        with pytest.raises(ConfigurationError):
            RegisterFile(0)


class TestOccupancy:
    def test_register_limited_kernel(self):
        # 48 regs x 256 threads = 12288 regs/block; 32768 // 12288 = 2 blocks
        kernel = KernelDescriptor(name="k", regs_per_thread=48, threads_per_block=256)
        occ = compute_occupancy(kernel, baseline_sram())
        assert occ.blocks_per_sm == 2
        assert occ.warps_per_sm == 16
        assert occ.limiter == "registers"

    def test_c2_fits_one_more_block(self):
        """The C2 lever: a larger register file admits one more whole CTA."""
        kernel = KernelDescriptor(name="k", regs_per_thread=48, threads_per_block=256)
        base = compute_occupancy(kernel, baseline_sram())
        boosted = compute_occupancy(kernel, config_c2())
        assert boosted.blocks_per_sm == base.blocks_per_sm + 1

    def test_block_granularity_blocks_partial_gains(self):
        """The paper's no-gain case: 63 regs/thread cannot use C2's boost."""
        kernel = KernelDescriptor(name="k", regs_per_thread=63, threads_per_block=256)
        base = compute_occupancy(kernel, baseline_sram())
        boosted = compute_occupancy(kernel, config_c2())
        assert boosted.warps_per_sm == base.warps_per_sm

    def test_warp_limited_kernel(self):
        kernel = KernelDescriptor(name="k", regs_per_thread=8, threads_per_block=256)
        occ = compute_occupancy(kernel, baseline_sram())
        assert occ.warps_per_sm <= 48
        assert occ.limiter in ("warps", "blocks")

    def test_shared_memory_limiter(self):
        kernel = KernelDescriptor(
            name="k", regs_per_thread=8, threads_per_block=64,
            shared_mem_per_block=24 * 1024,
        )
        occ = compute_occupancy(kernel, baseline_sram())
        assert occ.blocks_per_sm == 2
        assert occ.limiter == "shared_mem"

    def test_kernel_too_big_raises(self):
        kernel = KernelDescriptor(
            name="k", regs_per_thread=200, threads_per_block=512
        )
        with pytest.raises(ConfigurationError):
            compute_occupancy(kernel, baseline_sram())

    @given(st.integers(min_value=8, max_value=64),
           st.sampled_from([64, 128, 192, 256, 512]))
    def test_warps_never_exceed_limits(self, regs, tpb):
        kernel = KernelDescriptor(name="k", regs_per_thread=regs, threads_per_block=tpb)
        config = baseline_sram()
        try:
            occ = compute_occupancy(kernel, config)
        except ConfigurationError:
            return
        assert occ.warps_per_sm <= config.max_warps_per_sm
        assert occ.blocks_per_sm <= config.max_blocks_per_sm
        assert (
            occ.blocks_per_sm * kernel.regs_per_block() <= config.registers_per_sm
        )
