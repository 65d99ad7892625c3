"""Tests for LRU replacement."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.replacement import LRUPolicy
from repro.errors import ConfigurationError

ALL_VALID = lambda way: True
NONE_VALID = lambda way: False


class TestVictimPrefersInvalid:
    def test_invalid_way_chosen_first(self):
        policy = LRUPolicy(4)
        valid = [True, True, False, True]
        assert policy.victim(lambda w: valid[w]) == 2

    def test_empty_set_gives_way_zero(self):
        assert LRUPolicy(4).victim(NONE_VALID) == 0


class TestLRU:
    def test_least_recent_evicted(self):
        policy = LRUPolicy(4)
        for way in (0, 1, 2, 3):
            policy.on_fill(way)
        policy.on_hit(0)  # order now 1,2,3,0
        assert policy.victim(ALL_VALID) == 1

    def test_sequence(self):
        policy = LRUPolicy(2)
        policy.on_fill(0)
        policy.on_fill(1)
        policy.on_hit(0)
        assert policy.victim(ALL_VALID) == 1
        policy.on_hit(1)
        assert policy.victim(ALL_VALID) == 0

    def test_zero_associativity_rejected(self):
        with pytest.raises(ConfigurationError):
            LRUPolicy(0)

    def test_way_range_checked(self):
        with pytest.raises(ConfigurationError):
            LRUPolicy(4).on_hit(4)

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=50))
    def test_victim_is_least_recent(self, touches):
        policy = LRUPolicy(8)
        for way in touches:
            policy.on_hit(way)
        # reconstruct expected LRU order
        order = list(range(8))
        for way in touches:
            order.remove(way)
            order.append(way)
        assert policy.victim(ALL_VALID) == order[0]

