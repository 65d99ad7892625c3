"""Tests for address slicing and bank hashing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cache.address import AddressMapper, bank_index
from repro.errors import GeometryError


class TestAddressMapper:
    def test_split_basic(self):
        mapper = AddressMapper(line_size=256, num_sets=64)
        tag, index = mapper.split(0x12345)
        # 0x12345 >> 8 = 0x123; 0x123 & 63 = 0x23; 0x123 >> 6 = 4
        assert index == 0x123 & 63
        assert tag == 0x123 >> 6

    def test_rebuild_roundtrip_pow2(self):
        mapper = AddressMapper(line_size=256, num_sets=64)
        address = 0xDEADBEEF00
        tag, index = mapper.split(address)
        assert mapper.rebuild(tag, index) == mapper.line_address(address)

    def test_rebuild_roundtrip_non_pow2(self):
        """The paper's 7-way HR part has 768 sets (not a power of two)."""
        mapper = AddressMapper(line_size=256, num_sets=768)
        for address in (0, 256, 0xABCDE00, 987654321):
            tag, index = mapper.split(address)
            assert 0 <= index < 768
            assert mapper.rebuild(tag, index) == mapper.line_address(address)

    def test_line_address_alignment(self):
        mapper = AddressMapper(line_size=128, num_sets=16)
        assert mapper.line_address(0x1FF) == 0x180

    def test_consecutive_lines_hit_consecutive_sets(self):
        mapper = AddressMapper(line_size=256, num_sets=64)
        indices = [mapper.split(line * 256)[1] for line in range(8)]
        assert indices == list(range(8))

    def test_rejects_non_pow2_line(self):
        with pytest.raises(GeometryError):
            AddressMapper(line_size=100, num_sets=4)

    def test_rejects_zero_sets(self):
        with pytest.raises(GeometryError):
            AddressMapper(line_size=64, num_sets=0)

    def test_rejects_negative_address(self):
        mapper = AddressMapper(line_size=64, num_sets=4)
        with pytest.raises(GeometryError):
            mapper.split(-1)

    def test_rebuild_rejects_out_of_range_index(self):
        mapper = AddressMapper(line_size=64, num_sets=4)
        with pytest.raises(GeometryError):
            mapper.rebuild(0, 4)

    @given(st.integers(min_value=0, max_value=2**40),
           st.sampled_from([64, 128, 256]),
           st.sampled_from([1, 4, 64, 768, 1024]))
    def test_roundtrip_property(self, address, line_size, num_sets):
        mapper = AddressMapper(line_size=line_size, num_sets=num_sets)
        tag, index = mapper.split(address)
        assert 0 <= index < num_sets
        assert mapper.rebuild(tag, index) == mapper.line_address(address)

    @given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1),
           st.sampled_from([64, 128, 256]),
           st.sampled_from([1, 4, 64, 768, 1024]))
    def test_split_columns_matches_split(self, addresses, line_size, num_sets):
        mapper = AddressMapper(line_size=line_size, num_sets=num_sets)
        lines, tags, indices = mapper.split_columns(
            np.array(addresses, dtype=np.int64)
        )
        assert lines.tolist() == [mapper.line_address(a) for a in addresses]
        assert list(zip(tags.tolist(), indices.tolist())) == \
            [mapper.split(a) for a in addresses]


class TestBankIndex:
    def test_line_interleaving(self):
        banks = [bank_index(line * 256, 256, 8) for line in range(16)]
        assert banks == list(range(8)) * 2

    def test_same_line_same_bank(self):
        assert bank_index(0x1000, 256, 8) == bank_index(0x10FF, 256, 8)

    def test_rejects_non_pow2_banks(self):
        with pytest.raises(GeometryError):
            bank_index(0, 256, 6)

    def test_rejects_negative_address(self):
        with pytest.raises(GeometryError):
            bank_index(-5, 256, 8)

    @given(st.integers(min_value=0, max_value=2**40))
    def test_bank_in_range(self, address):
        assert 0 <= bank_index(address, 256, 8) < 8
