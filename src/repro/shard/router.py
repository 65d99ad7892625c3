"""In-process shard router: one L2 facade over per-shard L2 slices.

The process-pool engine (:mod:`repro.shard.simulator`) never holds all
shards in one process; the differential oracle does.  ``ShardedL2Router``
fronts a list of per-shard L2 instances with the engine's exact hash and
address remap, so the lockstep runner can drive a *sharded* DUT through
the plain :class:`~repro.core.interface.L2Interface` surface.

At ``shards=1`` the router is a transparent proxy: every attribute not
defined here delegates to the single underlying L2, which keeps the
oracle's counter/snapshot introspection working unchanged.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.units import is_power_of_two, log2_int


class ShardedL2Router:
    """Route L2 accesses to per-shard slices by the bank hash."""

    def __init__(self, banks: Sequence, line_size: int) -> None:
        banks = list(banks)
        if not banks or not is_power_of_two(len(banks)):
            raise ConfigurationError(
                f"router needs a positive power-of-two shard count, "
                f"got {len(banks)}"
            )
        # object.__setattr__-free: plain attributes, but set them before
        # any lookup can trigger __getattr__ recursion
        self.__dict__["_banks"] = banks
        self.__dict__["_shards"] = len(banks)
        self.__dict__["_shard_bits"] = log2_int(len(banks))
        self.__dict__["_line_shift"] = log2_int(line_size)
        self.__dict__["_offset_mask"] = line_size - 1

    @property
    def banks(self) -> List:
        """The per-shard L2 instances, shard order."""
        return list(self._banks)

    @property
    def shards(self) -> int:
        """Shard count (power of two)."""
        return self._shards

    def shard_of(self, address: int) -> int:
        """Owning shard: the engine's line-interleaved hash."""
        return (address >> self._line_shift) & (self._shards - 1)

    def remap(self, address: int) -> int:
        """Drop the shard-selector bits (the worker-side address space)."""
        lineno = address >> (self._line_shift + self._shard_bits)
        return (lineno << self._line_shift) | (address & self._offset_mask)

    def access(self, address: int, is_write: bool, now: float):
        """Serve one request on the owning shard's slice."""
        return self._banks[self.shard_of(address)].access(
            self.remap(address), is_write, now
        )

    def maintenance(self, now: float) -> int:
        """Run every shard's maintenance; total DRAM write-backs."""
        return sum(bank.maintenance(now) for bank in self._banks)

    def dirty_lines(self) -> int:
        """Dirty residents across all shards."""
        return sum(bank.dirty_lines() for bank in self._banks)

    def __getattr__(self, name: str):
        """Transparent single-shard proxying for oracle introspection.

        With more than one shard there is no single underlying object to
        impersonate, so only explicit methods are available.
        """
        if self.__dict__.get("_shards") == 1:
            return getattr(self.__dict__["_banks"][0], name)
        raise AttributeError(
            f"{type(self).__name__} with {self.__dict__.get('_shards')} "
            f"shards has no attribute {name!r} (single-shard routers proxy "
            "their bank; multi-shard ones expose only the router surface)"
        )
