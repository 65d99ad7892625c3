"""Equivalence gates for the replay hot-path optimizations.

**Dict-vs-scan cache equivalence** — the optimized demand path
(``SetAssociativeCache.access``: cached address split, per-set tag→way
dict, shared :class:`AccessOutcome` records) must be observationally
identical to the pre-optimization reference (``_slow_access``: fresh
outcomes, linear way scans).  Randomized access sequences are replayed
through twin caches and every externally visible artifact is compared —
the outcome stream, the aggregate stats, and the per-set / per-way /
per-frame counters the experiments read.

See ``docs/performance.md`` for why byte-identical results are the
non-negotiable acceptance bar for any replay speedup.
"""

import random

import pytest

from repro.cache.array import SetAssociativeCache

#: (capacity, associativity, line_size) geometries under test; 3072 B with
#: 64 B lines gives 12 sets — a deliberately non-power-of-two set count so
#: the divmod fallback of the cached split is exercised alongside the
#: shift/mask fast path.
GEOMETRIES = [
    (4096, 4, 64),       # 16 sets, power-of-two
    (3072, 4, 64),       # 12 sets, NON-power-of-two
    (2048, 8, 128),      # 2 sets, high associativity
    (1024, 1, 64),       # direct-mapped
]

POLICIES = ["lru", "plru", "fifo", "nru", "random"]


def _make_pair(capacity, associativity, line_size, policy, write_allocate=True):
    """Twin caches with identical geometry, policy and seeds."""
    kwargs = dict(
        policy=policy,
        write_allocate=write_allocate,
        write_counter_saturation=8,
        seed=7,
    )
    fast = SetAssociativeCache(capacity, associativity, line_size, **kwargs)
    slow = SetAssociativeCache(capacity, associativity, line_size, **kwargs)
    return fast, slow


def _random_sequence(rng, line_size, num_sets, length):
    """A skewed random access stream (hot lines + cold misses + rereferences)."""
    hot = [rng.randrange(0, 4 * num_sets * line_size) for _ in range(24)]
    sequence = []
    for step in range(length):
        roll = rng.random()
        if roll < 0.5:
            address = rng.choice(hot)
        elif roll < 0.8 and sequence:
            address = sequence[rng.randrange(len(sequence))][0]
        else:
            address = rng.randrange(0, 64 * num_sets * line_size)
        is_write = rng.random() < 0.4
        allocate = rng.random() >= 0.15  # mix in MSHR-style non-allocating probes
        sequence.append((address, is_write, allocate, float(step)))
    return sequence


def _observable_state(cache):
    """Everything the simulator and the experiments read off a cache array."""
    return {
        "stats": cache.stats,
        "set_evictions": cache.per_set_eviction_counts(),
        "set_writes": cache.per_set_write_counts(),
        "way_writes": cache.per_way_write_counts(),
        "frame_writes": cache.per_frame_write_counts(),
        "occupancy": cache.occupancy(),
        "blocks": [
            (index, way, block.valid, block.tag, block.dirty,
             block.insert_time, block.last_write_time, block.total_writes)
            for index, way, block in cache.iter_blocks()
        ],
    }


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_dict_path_matches_linear_reference(geometry, policy):
    capacity, associativity, line_size = geometry
    fast, slow = _make_pair(capacity, associativity, line_size, policy)
    rng = random.Random(hash((geometry, policy)) & 0xFFFF)
    sequence = _random_sequence(rng, line_size, fast.num_sets, 600)
    for address, is_write, allocate, now in sequence:
        fast_outcome = fast.access(address, is_write, now, allocate=allocate)
        slow_outcome = slow._slow_access(address, is_write, now, allocate=allocate)
        assert fast_outcome == slow_outcome, (
            f"outcome diverged at {address:#x} (write={is_write}, "
            f"allocate={allocate}): {fast_outcome} != {slow_outcome}"
        )
    assert _observable_state(fast) == _observable_state(slow)


@pytest.mark.parametrize("geometry", GEOMETRIES[:2])
def test_write_no_allocate_equivalence(geometry):
    """The GPU L1 global-write configuration (write-no-allocate)."""
    capacity, associativity, line_size = geometry
    fast, slow = _make_pair(
        capacity, associativity, line_size, "lru", write_allocate=False
    )
    rng = random.Random(1234)
    for address, is_write, allocate, now in _random_sequence(
        rng, line_size, fast.num_sets, 400
    ):
        assert fast.access(address, is_write, now, allocate=allocate) == \
            slow._slow_access(address, is_write, now, allocate=allocate)
    assert _observable_state(fast) == _observable_state(slow)


def test_maintenance_paths_share_the_decomposition():
    """probe/fill/invalidate/evict/extract stay coherent with the dict path."""
    fast, slow = _make_pair(4096, 4, 64, "lru")
    rng = random.Random(99)
    addresses = [rng.randrange(0, 1 << 20) for _ in range(300)]
    for step, address in enumerate(addresses):
        op = rng.random()
        if op < 0.5:
            assert fast.access(address, op < 0.25, float(step)) == \
                slow._slow_access(address, op < 0.25, float(step))
        elif op < 0.65:
            assert fast.fill(address, float(step), dirty=op < 0.6) == \
                slow.fill(address, float(step), dirty=op < 0.6)
        elif op < 0.75:
            assert fast.probe(address) == slow.probe(address)
        elif op < 0.85:
            assert fast.invalidate(address) == slow.invalidate(address)
        elif op < 0.95:
            assert fast.evict(address) == slow.evict(address)
        else:
            assert fast.extract(address) == slow.extract(address)
    assert _observable_state(fast) == _observable_state(slow)


def test_lookup_matches_lookup_linear():
    """The per-set tag→way dict never disagrees with a raw way scan."""
    cache = SetAssociativeCache(2048, 4, 64, policy="lru")
    rng = random.Random(5)
    for step in range(500):
        address = rng.randrange(0, 1 << 18)
        cache.access(address, rng.random() < 0.5, float(step))
        if rng.random() < 0.2:
            cache.invalidate(rng.randrange(0, 1 << 18))
    for index, cache_set in enumerate(cache.sets):
        for _, _, block in ((index, w, b) for w, b in enumerate(cache_set.blocks)):
            if block.valid:
                assert cache_set.lookup(block.tag) == \
                    cache_set.lookup_linear(block.tag)
        assert cache_set.lookup(0xDEAD_BEEF) == \
            cache_set.lookup_linear(0xDEAD_BEEF)


def test_shared_outcomes_are_value_equal_not_identity_dependent():
    """The preallocated hit/miss records carry the same field values."""
    cache = SetAssociativeCache(1024, 2, 64, policy="lru")
    first = cache.access(0, False, 0.0)
    hit_a = cache.access(0, False, 1.0)
    hit_b = cache.access(0, True, 2.0)
    assert first.filled and not first.hit
    assert hit_a.hit and hit_b.hit
    assert hit_a == hit_b
    assert hit_a.set_index == first.set_index and hit_a.way == first.way

