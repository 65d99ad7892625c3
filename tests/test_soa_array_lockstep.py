"""The SoA cache array and the object cache array, driven in lockstep.

:class:`repro.engine.soa_array.SoaCacheArray` keeps a set's LRU order as
the insertion order of its ``tag -> way`` dict;
:class:`repro.cache.array.SetAssociativeCache` keeps a recency list of
ways per set.  Both take the same random read / write / invalidate
sequence here, on power-of-two and other set counts with 1-4 ways.  After
every step they must report the same outcome, and at the end the same
stats and the same state in every way.
"""

from hypothesis import given, settings, strategies as st

from repro.cache.array import SetAssociativeCache
from repro.engine.soa_array import SoaCacheArray

LINE = 64

#: one step: (operation, line number, byte offset within the line)
STEP = st.tuples(
    st.sampled_from(["read", "write", "write", "read", "invalidate"]),
    st.integers(0, 47),
    st.integers(0, LINE - 1),
)


def _block_state(array):
    return [
        (index, way, block.tag, block.valid, block.dirty, block.write_count,
         block.total_writes, block.last_write_time, block.insert_time)
        for index, way, block in array.iter_blocks()
    ]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    num_sets=st.sampled_from([1, 2, 3, 4, 5, 6, 8]),
    assoc=st.integers(1, 4),
    saturation=st.integers(0, 3),
    steps=st.lists(STEP, min_size=1, max_size=80),
)
def test_soa_array_matches_object_array(num_sets, assoc, saturation, steps):
    capacity = num_sets * assoc * LINE
    soa = SoaCacheArray(
        capacity, assoc, LINE, write_counter_saturation=saturation
    )
    obj = SetAssociativeCache(
        capacity, assoc, LINE, write_counter_saturation=saturation
    )
    for step, (op, line, offset) in enumerate(steps):
        address = line * LINE + offset
        now = 0.5 * (step + 1)
        if op == "invalidate":
            assert soa.invalidate(address) == obj.invalidate(address), step
            continue
        is_write = op == "write"
        got = soa.access(address, is_write, now)
        want = obj.access(address, is_write, now)
        assert (
            got.hit, got.set_index, got.way, got.filled,
            got.evicted_address, got.evicted_dirty,
        ) == (
            want.hit, want.set_index, want.way, want.filled,
            want.evicted_address, want.evicted_dirty,
        ), step
    assert soa.stats == obj.stats
    assert _block_state(soa) == _block_state(obj)
