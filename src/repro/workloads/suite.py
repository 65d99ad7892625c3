"""Suite assembly: benchmark names -> ready-to-run workloads."""

from __future__ import annotations

from typing import List

from repro.workloads.generator import TraceGenerator
from repro.workloads.profiles import PROFILES, get_profile
from repro.workloads.trace import Workload

#: Default trace length; experiments override (tests use much less).
DEFAULT_TRACE_LENGTH = 60_000


def suite_names() -> List[str]:
    """Benchmark names ordered by region then name (the Fig. 8 x-axis)."""
    return sorted(PROFILES, key=lambda n: (PROFILES[n].region, n))


def build_workload(
    name: str,
    num_accesses: int = DEFAULT_TRACE_LENGTH,
    num_sms: int = 15,
    seed: int = 0,
) -> Workload:
    """Generate one benchmark's workload (kernel descriptor + trace)."""
    profile = get_profile(name)
    trace = TraceGenerator(profile).generate(
        num_accesses=num_accesses, num_sms=num_sms, seed=seed
    )
    return Workload(name=name, kernel=profile.kernel_descriptor(), trace=trace)
