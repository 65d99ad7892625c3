"""Tests for the CACTI-like area/power model."""

import pytest
from hypothesis import given, strategies as st

from repro.areapower import (
    CacheEnergyModel,
    SRAMArrayModel,
    STTDataArrayModel,
    TECH_32NM,
    TECH_40NM,
    TECH_45NM,
    TechnologyNode,
    WireModel,
)
from repro.errors import ConfigurationError, GeometryError
from repro.sttram.retention import retention_catalogue
from repro.units import KB, MB

CAT = retention_catalogue()


class TestTechnology:
    def test_40nm_feature_size(self):
        assert TECH_40NM.feature_size == pytest.approx(40e-9)

    def test_scaling_shrinks_area(self):
        assert TECH_32NM.sram_cell_area < TECH_40NM.sram_cell_area

    def test_scaling_grows_leakage_per_cell_on_shrink(self):
        """The paper's motivation: leakage worsens with each node."""
        assert TECH_32NM.sram_cell_leakage > TECH_40NM.sram_cell_leakage

    def test_older_node_leaks_less(self):
        assert TECH_45NM.sram_cell_leakage < TECH_40NM.sram_cell_leakage

    def test_rejects_bad_feature_size(self):
        with pytest.raises(ConfigurationError):
            TechnologyNode(name="bad", feature_size=0.0, vdd=1.0)

    def test_leakage_per_byte_is_8x_cell(self):
        assert TECH_40NM.sram_leakage_per_byte() == pytest.approx(
            8 * TECH_40NM.sram_cell_leakage
        )


class TestWireModel:
    def test_htree_length_grows_with_area(self):
        wire = WireModel()
        assert wire.htree_length_mm(4e-6) == pytest.approx(2.0)

    def test_delay_scales_with_sqrt_area(self):
        wire = WireModel()
        assert wire.delay(4e-6) == pytest.approx(2 * wire.delay(1e-6))

    def test_energy_scales_with_bits(self):
        wire = WireModel()
        assert wire.energy(1e-6, 2048) == pytest.approx(2 * wire.energy(1e-6, 1024))

    def test_rejects_negative_bits(self):
        with pytest.raises(ConfigurationError):
            WireModel().energy(1e-6, -1)


class TestSRAMArray:
    def test_leakage_scales_with_capacity(self):
        small = SRAMArrayModel(capacity_bytes=128 * KB, access_bits=2048)
        large = SRAMArrayModel(capacity_bytes=512 * KB, access_bits=2048)
        assert large.leakage_power == pytest.approx(4 * small.leakage_power)

    def test_bigger_array_higher_access_energy(self):
        small = SRAMArrayModel(capacity_bytes=128 * KB, access_bits=2048)
        large = SRAMArrayModel(capacity_bytes=2 * MB, access_bits=2048)
        assert large.read_energy > small.read_energy

    def test_write_energy_exceeds_read(self):
        arr = SRAMArrayModel(capacity_bytes=384 * KB, access_bits=2048)
        assert arr.write_energy > arr.read_energy

    def test_latency_grows_with_capacity(self):
        small = SRAMArrayModel(capacity_bytes=64 * KB, access_bits=2048)
        large = SRAMArrayModel(capacity_bytes=4 * MB, access_bits=2048)
        assert large.access_latency > small.access_latency

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            SRAMArrayModel(capacity_bytes=0, access_bits=8)

    @given(st.integers(min_value=1, max_value=64))
    def test_area_linear_in_capacity(self, factor):
        base = SRAMArrayModel(capacity_bytes=16 * KB, access_bits=512)
        scaled = SRAMArrayModel(capacity_bytes=16 * KB * factor, access_bits=512)
        assert scaled.area == pytest.approx(base.area * factor)


class TestSTTDataArray:
    def test_density_about_4x_vs_sram(self):
        sram = SRAMArrayModel(capacity_bytes=384 * KB, access_bits=2048)
        stt = STTDataArrayModel(
            capacity_bytes=384 * KB, line_size_bytes=256, level=CAT["10year"]
        )
        assert 3.5 < sram.area / stt.area < 4.5

    def test_leakage_far_below_sram(self):
        sram = SRAMArrayModel(capacity_bytes=384 * KB, access_bits=2048)
        stt = STTDataArrayModel(
            capacity_bytes=384 * KB, line_size_bytes=256, level=CAT["hr"]
        )
        assert stt.leakage_power < 0.25 * sram.leakage_power

    def test_write_latency_ordering_by_retention(self):
        lr = STTDataArrayModel(192 * KB, 256, CAT["lr"])
        hr = STTDataArrayModel(192 * KB, 256, CAT["hr"])
        ny = STTDataArrayModel(192 * KB, 256, CAT["10year"])
        assert lr.write_latency < hr.write_latency < ny.write_latency

    def test_write_energy_ordering_by_retention(self):
        lr = STTDataArrayModel(192 * KB, 256, CAT["lr"])
        ny = STTDataArrayModel(192 * KB, 256, CAT["10year"])
        assert lr.write_energy < ny.write_energy

    def test_write_dominates_read(self):
        arr = STTDataArrayModel(384 * KB, 256, CAT["hr"])
        assert arr.write_energy > 2 * arr.read_energy
        assert arr.write_latency > arr.read_latency


class TestCacheEnergyModel:
    def make_sram(self, capacity=384 * KB, assoc=8):
        return CacheEnergyModel(capacity, assoc, 256)

    def make_stt(self, capacity=1536 * KB, assoc=8, level="10year", extra=0):
        return CacheEnergyModel(
            capacity, assoc, 256,
            sram_data=False, retention_level=CAT[level], extra_status_bits=extra,
        )

    def test_geometry_validation(self):
        with pytest.raises(GeometryError):
            CacheEnergyModel(384 * KB + 1, 8, 256)

    def test_stt_requires_retention_level(self):
        with pytest.raises(GeometryError):
            CacheEnergyModel(384 * KB, 8, 256, sram_data=False)

    def test_4x_stt_fits_in_sram_area(self):
        """The paper's premise: a 4x larger STT L2 in the same area."""
        sram = self.make_sram()
        stt = self.make_stt(capacity=4 * 384 * KB)
        assert stt.area <= sram.area * 1.10  # tags add a little

    def test_leakage_gap(self):
        sram = self.make_sram()
        stt = self.make_stt(capacity=4 * 384 * KB)
        assert stt.leakage_power < 0.6 * sram.leakage_power

    def test_stt_write_energy_exceeds_sram(self):
        """Even relaxed STT writes cost more than SRAM writes (the paper
        says exactly this)."""
        sram = self.make_sram()
        lr = self.make_stt(capacity=192 * KB, assoc=2, level="lr")
        assert lr.write_hit_energy > sram.write_hit_energy * 1.2

    def test_extra_status_bits_grow_tags(self):
        plain = self.make_stt()
        counters = self.make_stt(extra=6)
        assert counters.tag_record_bits == plain.tag_record_bits + 6
        assert counters.area > plain.area

    def test_fill_energy_at_least_write_hit(self):
        model = self.make_stt()
        assert model.fill_energy >= model.write_hit_energy * 0.9

    def test_write_latency_exceeds_read_for_stt(self):
        model = self.make_stt()
        assert model.write_latency > model.read_latency

    def test_sram_latencies_equal(self):
        model = self.make_sram()
        assert model.read_latency == pytest.approx(model.write_latency)

    def test_seven_way_hr_geometry_from_table2(self):
        """C1's HR part: 1344KB 7-way 256B lines must factor cleanly."""
        model = CacheEnergyModel(
            1344 * KB, 7, 256, sram_data=False, retention_level=CAT["hr"]
        )
        assert model.num_lines == 1344 * KB // 256
