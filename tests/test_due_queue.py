"""Property tests of the SoA two-part L2's LR due queue.

:class:`~repro.engine.soa_l2.SoaTwoPartL2` sweeps LR by popping a queue of
``(stamp, slot)`` entries instead of scanning every LR slot.  These tests
drive it in lockstep with the object-model :class:`TwoPartSTTL2`, whose
sweep is the full scan, through random LR fills (migrations), write hits,
invalidations and sweeps on the 8-slot LR of ``oracle-small``: the sweep
decisions, results and final state must be identical, and the queue must
keep its invariant after every step (docs in
:meth:`SoaTwoPartL2.maintenance`).
"""

from hypothesis import given, settings, strategies as st

from repro.core.twopart import TwoPartSTTL2
from repro.engine.soa_l2 import SoaTwoPartL2
from repro.oracle import dut_counters, l2_kwargs_from_config, pressure_config

LINE = 256

#: gaps around the LR tick (2.5 us), refresh age and retention (40 us)
GAPS = [0.0, 3e-7, 2.5e-6, 1e-5, 3.6e-5, 4.5e-5]

step = st.one_of(
    # access: line id, write?, gap
    st.tuples(st.just("access"), st.integers(0, 15), st.booleans(),
              st.sampled_from(GAPS)),
    # drop a line from LR directly: its queued stamps go stale
    st.tuples(st.just("invalidate"), st.integers(0, 15), st.just(False),
              st.sampled_from(GAPS)),
    # maintenance alone: drains and any due sweep
    st.tuples(st.just("sweep"), st.just(0), st.just(False),
              st.sampled_from(GAPS)),
)


def _pair(**overrides):
    kwargs = l2_kwargs_from_config(pressure_config().l2)
    kwargs.update(overrides)
    return TwoPartSTTL2(**kwargs), SoaTwoPartL2(**kwargs)


def _actions(l2):
    actions = l2.refresh_engine.last_actions
    if actions is None:
        return None
    return (actions.lr_refresh, actions.lr_lost,
            actions.hr_drop_clean, actions.hr_drop_dirty)


def _assert_queue_invariant(l2):
    """Sorted stamps, and every valid LR slot's clock is queued (an SRAM
    LR part queues nothing)."""
    queue = list(l2._lr_due)
    if l2.lr_spec is None:
        assert not queue
        return
    stamps = [stamp for stamp, _ in queue]
    assert stamps == sorted(stamps)
    lr = l2.lr_array
    entries = set(queue)
    for slot, valid in enumerate(lr.valid_vec):
        if valid:
            clock = max(lr.insert_time_vec[slot], lr.last_write_time_vec[slot])
            assert (clock, slot) in entries, (slot, clock)


def _timed(steps, backwards=None):
    """Absolute times for ``steps``; a True in ``backwards`` steps back."""
    now = 0.0
    for index, (op, line_id, is_write, gap) in enumerate(steps):
        if backwards is not None and backwards[index]:
            now = max(0.0, now - gap)
        else:
            now += gap
        yield op, line_id * LINE, is_write, now


def _run_lockstep(obj, soa, timed_steps):
    for op, address, is_write, now in timed_steps:
        if op == "access":
            obj_res = obj.access(address, is_write, now)
            soa_res = soa.access(address, is_write, now)
            assert (obj_res.hit, obj_res.part, obj_res.latency_s,
                    obj_res.energy_j, obj_res.dram_writebacks) == \
                (soa_res.hit, soa_res.part, soa_res.latency_s,
                 soa_res.energy_j, soa_res.dram_writebacks)
        elif op == "invalidate":
            assert obj.lr_array.invalidate(address) == \
                soa.lr_array.invalidate(address)
        else:
            assert obj.maintenance(now) == soa.maintenance(now)
        assert _actions(obj) == _actions(soa)
        _assert_queue_invariant(soa)
    assert obj.state_snapshot() == soa.state_snapshot()
    assert dut_counters(obj) == dut_counters(soa)
    assert obj.energy.as_dict() == soa.energy.as_dict()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(step, min_size=80, max_size=200))
def test_queued_sweep_matches_the_full_scan(steps):
    """Nondecreasing time: the queued sweep decides as the full scan."""
    obj, soa = _pair()
    _run_lockstep(obj, soa, _timed(steps))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(step, min_size=80, max_size=200),
       st.lists(st.booleans(), min_size=200, max_size=200))
def test_an_early_stamp_never_skips_a_refresh(steps, backwards):
    """Time that steps back queues stamps earlier than the tail; they are
    inserted in order, so no due slot is missed."""
    obj, soa = _pair()
    _run_lockstep(obj, soa, _timed(steps, backwards))


def test_an_early_stamp_is_inserted_in_order():
    _, soa = _pair()
    soa._queue_due(5e-6, 0)
    soa._queue_due(3e-6, 1)
    soa._queue_due(5e-6, 2)
    assert list(soa._lr_due) == [(3e-6, 1), (5e-6, 0), (5e-6, 2)]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(step, min_size=80, max_size=200))
def test_sram_lr_keeps_the_queue_empty(steps):
    """An SRAM LR part never expires and schedules no LR sweep."""
    obj, soa = _pair(lr_technology="sram")
    _run_lockstep(obj, soa, _timed(steps))
