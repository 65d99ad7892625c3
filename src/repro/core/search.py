"""Cache search selector: sequential (energy-saving) vs parallel lookup.

With two parallel L2 arrays every access could probe both tag arrays at
once (fast, but both probes always burn energy) or probe them sequentially
(second probe only on a first-probe miss).  The paper's selector picks the
*order* by access type: writes are expected in LR (the WWS lives there), so
writes probe LR first; reads probe HR first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.tracing import NULL_TRACER, TraceCollector


@dataclass
class SearchStats:
    """Probe accounting."""

    accesses: int = 0
    first_probe_hits: int = 0
    second_probes: int = 0


class SearchSelector:
    """Chooses probe order and accounts probe counts/energy.

    Parameters
    ----------
    sequential:
        True for the paper's sequential search; False probes both parts in
        parallel.
    tracer:
        Optional :class:`~repro.tracing.TraceCollector`; mirrors the probe
        accounting into the ``l2.search.*`` trace counters (the
        probe-energy-savings evidence — see ``docs/metrics.md``).
    """

    #: probe orders by access type (paper section 5)
    WRITE_ORDER: Tuple[str, str] = ("lr", "hr")
    READ_ORDER: Tuple[str, str] = ("hr", "lr")

    def __init__(
        self,
        sequential: bool = True,
        tracer: Optional[TraceCollector] = None,
    ) -> None:
        self.sequential = sequential
        self.stats = SearchStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def probe_order(self, is_write: bool) -> Tuple[str, str]:
        """The order in which the two parts are probed."""
        return self.WRITE_ORDER if is_write else self.READ_ORDER

    def record(self, is_write: bool, hit_part: str) -> int:
        """Account one access; returns the number of tag probes performed.

        ``hit_part`` is ``"lr"``, ``"hr"`` or ``"miss"``.
        """
        if hit_part not in ("lr", "hr", "miss"):
            raise ConfigurationError(f"unknown hit part {hit_part!r}")
        self.stats.accesses += 1
        first_hit = hit_part == self.probe_order(is_write)[0]
        if not self.sequential:
            # parallel search always probes both arrays
            if first_hit:
                self.stats.first_probe_hits += 1
            self.stats.second_probes += 1
            probes = 2
        elif first_hit:
            self.stats.first_probe_hits += 1
            probes = 1
        else:
            self.stats.second_probes += 1
            probes = 2
        if self.tracer.enabled:
            self.tracer.count("l2.search.accesses")
            if first_hit:
                self.tracer.count("l2.search.first_probe_hits")
            if probes == 2:
                self.tracer.count("l2.search.second_probes")
        return probes

    def latency_factor(self, probes: int) -> int:
        """Serialized tag lookups for sequential search (1 for parallel)."""
        if probes < 1:
            raise ConfigurationError("at least one probe is required")
        return probes if self.sequential else 1
