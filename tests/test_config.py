"""Tests for configuration dataclasses and Table 2 presets."""

import pytest

from repro.config import (
    BASELINE_REGISTERS_PER_SM,
    GPUConfig,
    L1Config,
    L2Config,
    L2PartConfig,
    all_configs,
    baseline_sram,
    baseline_stt,
    config_c1,
    config_c2,
    config_c3,
    derived_register_boost,
    render_table2,
)
from repro.errors import ConfigurationError
from repro.units import KB


class TestL2PartConfig:
    def test_valid_geometry(self):
        part = L2PartConfig(384 * KB, 8)
        assert part.line_size == 256

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            L2PartConfig(384 * KB + 7, 8)

    def test_c1_hr_geometry_factors(self):
        L2PartConfig(1344 * KB, 7)  # 768 sets


class TestL2Config:
    def test_twopart_requires_lr(self):
        with pytest.raises(ConfigurationError):
            L2Config(kind="twopart", main=L2PartConfig(1344 * KB, 7))

    def test_uniform_rejects_lr(self):
        with pytest.raises(ConfigurationError):
            L2Config(
                kind="sram",
                main=L2PartConfig(384 * KB, 8),
                lr=L2PartConfig(48 * KB, 2),
            )

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            L2Config(kind="dram", main=L2PartConfig(384 * KB, 8))

    def test_relaxed_kind_is_rejected(self):
        """The uniform relaxed-retention comparator is not an L2 kind."""
        with pytest.raises(ConfigurationError, match="stt-relaxed"):
            L2Config(kind="stt-relaxed", main=L2PartConfig(1536 * KB, 8))

    def test_total_capacity_sums_parts(self):
        config = config_c1().l2
        assert config.total_capacity_bytes == 1536 * KB

    def test_retention_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            L2Config(
                kind="twopart",
                main=L2PartConfig(1344 * KB, 7),
                lr=L2PartConfig(192 * KB, 2),
                hr_retention_s=1e-6,
                lr_retention_s=1e-3,
            )

    def test_threshold_validated(self):
        with pytest.raises(ConfigurationError):
            L2Config(kind="sram", main=L2PartConfig(384 * KB, 8), write_threshold=0)


class TestPresets:
    def test_all_five_configs(self):
        configs = all_configs()
        assert set(configs) == {"baseline", "stt-baseline", "C1", "C2", "C3"}

    def test_baseline_geometry(self):
        config = baseline_sram()
        assert config.l2.kind == "sram"
        assert config.l2.main.capacity_bytes == 384 * KB
        assert config.l2.main.associativity == 8

    def test_stt_baseline_is_4x(self):
        config = baseline_stt()
        assert config.l2.main.capacity_bytes == 4 * 384 * KB

    def test_c1_table2_geometry(self):
        config = config_c1()
        assert config.l2.main.capacity_bytes == 1344 * KB
        assert config.l2.main.associativity == 7
        assert config.l2.lr is not None
        assert config.l2.lr.capacity_bytes == 192 * KB
        assert config.l2.lr.associativity == 2

    def test_c2_c3_same_and_double_capacity(self):
        assert config_c2().l2.total_capacity_bytes == 384 * KB
        assert config_c3().l2.total_capacity_bytes == 768 * KB

    def test_c2_register_boost_positive(self):
        assert config_c2().registers_per_sm > BASELINE_REGISTERS_PER_SM

    def test_c3_boost_smaller_than_c2(self):
        """C3 spends more area on cache, so less is left for registers."""
        assert (
            BASELINE_REGISTERS_PER_SM
            < config_c3().registers_per_sm
            < config_c2().registers_per_sm
        )

    def test_common_gtx480_parameters(self):
        for config in all_configs().values():
            assert config.num_sms == 15
            assert config.max_warps_per_sm == 48
            assert config.num_mem_controllers == 6
            assert config.l1.capacity_bytes == 16 * KB

    def test_render_table2_mentions_all(self):
        table = render_table2()
        for name in all_configs():
            assert name in table


class TestDerivedRegisterBoost:
    def test_boost_granularity(self):
        boost = derived_register_boost(
            L2PartConfig(336 * KB, 7), L2PartConfig(48 * KB, 2)
        )
        assert boost % 256 == 0
        assert boost > 0

    def test_no_boost_when_no_area_saved(self):
        # a two-part cache as large as C1 saves ~no area vs the SRAM baseline
        boost = derived_register_boost(
            L2PartConfig(1344 * KB, 7), L2PartConfig(192 * KB, 2)
        )
        assert boost == 0

    def test_smaller_cache_saves_more(self):
        small = derived_register_boost(
            L2PartConfig(336 * KB, 7), L2PartConfig(48 * KB, 2)
        )
        medium = derived_register_boost(
            L2PartConfig(672 * KB, 7), L2PartConfig(96 * KB, 2)
        )
        assert small > medium


class TestGPUConfigValidation:
    def test_rejects_zero_sms(self):
        with pytest.raises(ConfigurationError):
            GPUConfig(
                name="bad",
                l2=L2Config(kind="sram", main=L2PartConfig(384 * KB, 8)),
                num_sms=0,
            )

    def test_rejects_zero_registers(self):
        with pytest.raises(ConfigurationError):
            GPUConfig(
                name="bad",
                l2=L2Config(kind="sram", main=L2PartConfig(384 * KB, 8)),
                registers_per_sm=0,
            )

    def test_l1_geometry_validated(self):
        with pytest.raises(ConfigurationError):
            L1Config(capacity_bytes=16 * KB + 1)
