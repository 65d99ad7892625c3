"""Address-pattern building blocks for the synthetic trace generator.

Each segment models one kind of data a GPGPU kernel touches and knows how to
draw line indices for a batch of accesses:

* :class:`StreamingSegment` — sequential, no reuse (input/output streams);
* :class:`HotSegment` — Zipf-skewed reuse over a working set (the knob that
  makes a benchmark cache-sensitive and creates write skew, Fig. 3);
* :class:`PhasedWriteSegment` — the write working set: skewed rewrites
  within a phase, plus end-of-phase output bursts ("grids have a small
  amount of writes happening usually at the end of their execution");
* :class:`LocalSegment` — per-SM private data with windowed reuse.

All segments draw *line indices*; the generator turns them into byte
addresses inside disjoint address regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError


def zipf_pmf(num_items: int, alpha: float) -> np.ndarray:
    """Normalized Zipf(alpha) probability over ``num_items`` ranks.

    ``alpha = 0`` degenerates to uniform; larger alpha concentrates mass on
    the first ranks.
    """
    if num_items <= 0:
        raise ConfigurationError("need at least one item")
    if alpha < 0:
        raise ConfigurationError("alpha must be non-negative")
    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    weights = ranks**-alpha
    return weights / weights.sum()


@dataclass
class SegmentSpec:
    """Base class: a named pool of ``num_lines`` cache lines."""

    num_lines: int

    def __post_init__(self) -> None:
        if self.num_lines <= 0:
            raise ConfigurationError("segment needs at least one line")

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Return ``count`` line indices in ``[0, num_lines)``."""
        raise NotImplementedError


@dataclass
class StreamingSegment(SegmentSpec):
    """Sequential lines with wraparound; no temporal reuse."""

    _cursor: int = field(default=0, repr=False)

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        lines = (self._cursor + np.arange(count, dtype=np.int64)) % self.num_lines
        self._cursor = int((self._cursor + count) % self.num_lines)
        return lines


@dataclass
class HotSegment(SegmentSpec):
    """Zipf-skewed reuse; rank-to-line mapping is a seeded shuffle.

    The shuffle scatters hot lines across cache sets (realistic hashing).
    """

    alpha: float = 0.8
    permutation_seed: int = 12345
    _pmf: Optional[np.ndarray] = field(default=None, repr=False)
    _perm: Optional[np.ndarray] = field(default=None, repr=False)

    def _materialize(self) -> None:
        if self._pmf is None:
            self._pmf = zipf_pmf(self.num_lines, self.alpha)
            perm_rng = np.random.default_rng(self.permutation_seed)
            self._perm = perm_rng.permutation(self.num_lines)

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        self._materialize()
        assert self._pmf is not None and self._perm is not None
        ranks = rng.choice(self.num_lines, size=count, p=self._pmf)
        return self._perm[ranks]


@dataclass
class PhasedWriteSegment(SegmentSpec):
    """The WWS: Zipf rewrites, re-randomized each phase.

    Each phase re-shuffles which lines are hot, modelling one grid's private
    write set being retired when the next grid starts.
    """

    alpha: float = 1.0
    permutation_seed: int = 777
    _pmf: Optional[np.ndarray] = field(default=None, repr=False)
    _perm: Optional[np.ndarray] = field(default=None, repr=False)
    _phase: int = field(default=-1, repr=False)

    def start_phase(self, phase_index: int) -> None:
        """Re-randomize the hot set for a new phase (grid)."""
        if phase_index != self._phase:
            self._phase = phase_index
            perm_rng = np.random.default_rng(self.permutation_seed + phase_index)
            self._perm = perm_rng.permutation(self.num_lines)
            if self._pmf is None:
                self._pmf = zipf_pmf(self.num_lines, self.alpha)

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self._perm is None:
            self.start_phase(0)
        assert self._pmf is not None and self._perm is not None
        ranks = rng.choice(self.num_lines, size=count, p=self._pmf)
        return self._perm[ranks]


@dataclass
class LocalSegment(SegmentSpec):
    """Per-SM private data reused within a sliding window."""

    window_lines: int = 64

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.window_lines <= 0:
            raise ConfigurationError("window must be positive")
        self.window_lines = min(self.window_lines, self.num_lines)

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        # a slowly advancing window start plus a uniform draw inside it
        starts = rng.integers(0, max(1, self.num_lines - self.window_lines), size=count)
        offsets = rng.integers(0, self.window_lines, size=count)
        return (starts + offsets) % self.num_lines
