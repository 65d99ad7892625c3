"""LRU replacement, the one policy every cache in the model uses.

An :class:`LRUPolicy` instance manages one set of ``associativity`` ways.
Its hooks mirror what a hardware policy sees:

* :meth:`LRUPolicy.on_hit`  — a way was touched,
* :meth:`LRUPolicy.on_fill` — a way was (re)installed,
* :meth:`LRUPolicy.victim`  — pick the way to evict.

``victim`` prefers invalid ways (the caller passes a validity predicate),
so live data is never evicted while free ways exist.
"""

from __future__ import annotations

from typing import Callable, List

from repro.errors import ConfigurationError

ValidFn = Callable[[int], bool]


class LRUPolicy:
    """True least-recently-used via a recency list (MRU at the back)."""

    def __init__(self, associativity: int) -> None:
        if associativity <= 0:
            raise ConfigurationError("associativity must be positive")
        self.associativity = associativity
        self._order: List[int] = list(range(associativity))

    def _touch(self, way: int) -> None:
        if not 0 <= way < self.associativity:
            raise ConfigurationError(
                f"way {way} out of range for associativity {self.associativity}"
            )
        self._order.remove(way)
        self._order.append(way)

    def on_hit(self, way: int) -> None:
        """Move ``way`` to the MRU end of the recency list."""
        self._touch(way)

    def on_fill(self, way: int) -> None:
        """Treat a fill like a touch: the new line becomes MRU."""
        self._touch(way)

    def victim(self, valid: ValidFn) -> int:
        """Return the way to evict; invalid ways take priority."""
        for way in range(self.associativity):
            if not valid(way):
                return way
        return self.full_victim()

    def full_victim(self) -> int:
        """Victim when the caller knows every way is valid.

        Skips the validity scan of :meth:`victim`; callers that already
        scanned their ways (the hot fill path) use this directly.
        """
        return self._order[0]
