"""Address slicing: offset / set index / tag, and bank selection.

Addresses are plain integers (byte addresses).  The mapper pre-computes
shift/mask constants so the hot path is two shifts and a mask when the set
count is a power of two; non-power-of-two set counts (the paper's 7-way HR
part has 768 sets) fall back to divmod indexing, which hardware realizes
with a small mod-3 reduction alongside the usual bit slice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GeometryError
from repro.units import is_power_of_two, log2_int


@dataclass(frozen=True)
class AddressMapper:
    """Slices byte addresses for a cache of ``num_sets`` x ``line_size``.

    Attributes
    ----------
    line_size:
        Line size in bytes (power of two).
    num_sets:
        Number of sets (any positive count; powers of two use the fast
        mask path).
    """

    line_size: int
    num_sets: int

    def __post_init__(self) -> None:
        if not is_power_of_two(self.line_size):
            raise GeometryError(f"line size must be a power of two, got {self.line_size}")
        if self.num_sets <= 0:
            raise GeometryError(f"set count must be positive, got {self.num_sets}")
        # Shift/mask constants are fixed by the geometry; compute them once
        # so split() on the replay hot path is pure integer ops.  The
        # dataclass is frozen, hence object.__setattr__.
        object.__setattr__(self, "_offset_bits", log2_int(self.line_size))
        object.__setattr__(self, "_line_mask", ~(self.line_size - 1))
        pow2 = is_power_of_two(self.num_sets)
        object.__setattr__(self, "_pow2", pow2)
        object.__setattr__(self, "_set_bits", log2_int(self.num_sets) if pow2 else 0)
        object.__setattr__(self, "_set_mask", self.num_sets - 1 if pow2 else 0)

    @property
    def offset_bits(self) -> int:
        """Bits addressing bytes within a line."""
        return self._offset_bits

    @property
    def pow2_sets(self) -> bool:
        """True when the fast mask path applies."""
        return self._pow2

    def split(self, address: int) -> tuple:
        """Return ``(tag, set_index)`` for a byte address."""
        if address < 0:
            raise GeometryError(f"address must be non-negative, got {address}")
        line = address >> self._offset_bits
        if self._pow2:
            return line >> self._set_bits, line & self._set_mask
        return divmod(line, self.num_sets)[0], line % self.num_sets

    def split_columns(self, addresses) -> tuple:
        """Vectorized :meth:`split` over a NumPy address column.

        Returns ``(line_addresses, tags, set_indices)`` as NumPy columns
        (replay loops iterate their ``tolist()``); addresses must be
        non-negative (a :class:`~repro.workloads.trace.Trace` guarantees it).
        """
        line = addresses >> self._offset_bits
        if self._pow2:
            tags = line >> self._set_bits
            sets = line & self._set_mask
        else:
            tags = line // self.num_sets
            sets = line % self.num_sets
        return line << self._offset_bits, tags, sets

    def line_address(self, address: int) -> int:
        """The line-aligned address containing ``address``."""
        if address < 0:
            raise GeometryError(f"address must be non-negative, got {address}")
        return address & self._line_mask

    def rebuild(self, tag: int, set_index: int) -> int:
        """Inverse of :meth:`split`: reconstruct the line-aligned address."""
        if not 0 <= set_index < self.num_sets:
            raise GeometryError(f"set index {set_index} out of range")
        if tag < 0:
            raise GeometryError(f"tag must be non-negative, got {tag}")
        if self._pow2:
            line = (tag << self._set_bits) | set_index
        else:
            line = tag * self.num_sets + set_index
        return line << self._offset_bits


def bank_index(address: int, line_size: int, num_banks: int) -> int:
    """Low-order line-interleaved bank hash (GPU L2 style).

    Consecutive lines map to consecutive banks, spreading streaming traffic
    evenly — the standard GPU L2 interleaving.
    """
    if not is_power_of_two(num_banks):
        raise GeometryError(f"bank count must be a power of two, got {num_banks}")
    if not is_power_of_two(line_size):
        raise GeometryError(f"line size must be a power of two, got {line_size}")
    if address < 0:
        raise GeometryError(f"address must be non-negative, got {address}")
    return (address >> log2_int(line_size)) & (num_banks - 1)
