"""The characterization replay's L1 filter, checked on its output stream.

:func:`repro.experiments.common.replay_through_l1` feeds Figs. 3-6, the
energy breakdown and the surrogate features.  Its contract is the exact
sequence of ``l2_access(address, is_write, now)`` calls, so both checks
here compare whole streams: pinned SHA-256 digests on suite traces, and a
naive dict-LRU model of the same L1 policies on random tiny traces.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import L1Config, baseline_sram
from repro.errors import SimulationError, TraceError
from repro.experiments.common import replay_through_l1
from repro.gpu.kernel import KernelDescriptor
from repro.gpu.simulator import TIME_DILATION
from repro.workloads.suite import build_workload
from repro.workloads.trace import FLAG_LOCAL, FLAG_WRITE, Trace, Workload

#: sha256 of the ``"{address},{int(is_write)},{now!r}\n"`` lines of every
#: L2 request for (benchmark, seed) at 4000 accesses on the baseline L1s;
#: computed with the per-SM ``GPUL1Cache`` objects (immediate fills) this
#: filter replaced
PINNED_STREAMS = {
    ("bfs", 0): "777e1b5f48dcabf42801e78549a534ba45909afd795903f8d47450ad868e77ce",
    ("bfs", 1): "43194cc86c192fa9525301fef876fd313909d3865753b865a9683828ea52dd5d",
    ("lbm", 0): "f24e43e7e8583af6a1df4aa34ede681bc4fb2b2c9fee69c7856c3a7364a4f6ec",
    ("lbm", 1): "d5e2e46d6bd05bf923bc2a9ead81564bd50b36342f0ef86f44ee254b93899f32",
    ("mri-gridding", 0):
        "2497a30137a2c364beeb7d40e3fe8037513d3a59fcf3c511c0b02fba105f2941",
    ("mri-gridding", 1):
        "e06a0e71fa7828bf49d02f68f67d4def8964c5f13c3f4bd580e2ddf3114b6743",
}


def stream(workload, config=None):
    """Every ``(address, is_write, now)`` call the filter makes."""
    calls = []
    replay_through_l1(workload, lambda *request: calls.append(request), config)
    return calls


@pytest.mark.parametrize("name,seed", sorted(PINNED_STREAMS))
def test_stream_digest_pinned(name, seed):
    workload = build_workload(name, num_accesses=4000, seed=seed)
    digest = hashlib.sha256()
    for address, is_write, now in stream(workload):
        digest.update(f"{address},{int(is_write)},{now!r}\n".encode())
    assert digest.hexdigest() == PINNED_STREAMS[(name, seed)]


def reference_stream(records, config, dt):
    """Naive model: per-(SM, set) dicts of line -> dirty, oldest first."""
    geometry = config.l1
    num_sets = geometry.capacity_bytes // (
        geometry.associativity * geometry.line_size
    )
    sets = {}
    calls = []
    now = 0.0
    for sm, address, flags in records:
        now += dt
        line = address - address % geometry.line_size
        lines = sets.setdefault((sm, line // geometry.line_size % num_sets), {})
        is_write = bool(flags & FLAG_WRITE)
        if is_write and not flags & FLAG_LOCAL:
            lines.pop(line, None)  # write-evict / write-no-allocate
            calls.append((line, True, now))
        elif line in lines:
            lines[line] = lines.pop(line) or is_write  # now most recent
        else:
            if len(lines) == geometry.associativity:
                victim = next(iter(lines))
                if lines.pop(victim):
                    calls.append((victim, True, now))
            lines[line] = is_write
            calls.append((line, False, now))
    return calls


def tiny_workload(records):
    sm, address, flags = zip(*records)
    return Workload(
        name="tiny",
        kernel=KernelDescriptor("tiny"),
        trace=Trace(
            np.array(sm, dtype=np.int16),
            np.array(address, dtype=np.int64),
            np.array(flags, dtype=np.uint8),
        ),
    )


#: a 4-set 2-way L1 (power-of-two split) and a 3-set one (divmod split)
GEOMETRIES = [L1Config(1024, 2, 128), L1Config(768, 2, 128)]

records_strategy = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.integers(0, 4095),
        st.sampled_from([0, FLAG_WRITE, FLAG_LOCAL, FLAG_LOCAL | FLAG_WRITE]),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(records=records_strategy, geometry=st.sampled_from(GEOMETRIES))
def test_matches_naive_dict_lru(records, geometry):
    config = replace(baseline_sram(), l1=geometry, num_sms=2)
    workload = tiny_workload(records)
    dt = (workload.kernel.compute_intensity * (1.0 / config.core_clock_hz)
          / config.num_sms * TIME_DILATION)
    assert stream(workload, config) == reference_stream(records, config, dt)


@pytest.mark.parametrize("bit", [0x4, 0x8, 0x10])
def test_unknown_flag_bits_rejected(bit):
    """A trace holds only write and local records: any other flag bit is
    refused when the trace is built, naming the bit and the first record."""
    records = [(0, 0x0, 0), (1, 0x80, FLAG_WRITE), (0, 0x100, bit | FLAG_LOCAL),
               (1, 0x180, bit)]
    with pytest.raises(TraceError, match=f"record 2 .* bits {bit:#x}"):
        tiny_workload(records)


def test_sm_beyond_config_rejected():
    config = replace(baseline_sram(), num_sms=2)
    with pytest.raises(SimulationError, match="SM id 2"):
        stream(tiny_workload([(2, 0x0, 0)]), config)
