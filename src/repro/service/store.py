"""The shared result store: the telemetry cache promoted to a service tier.

:class:`SharedResultStore` extends :class:`repro.telemetry.ResultCache`
(same on-disk layout, same key space — battery runs with ``--cache-dir``
and the service can share one directory) with the properties a
long-running, multi-client service needs:

* **Bounded size** — optional ``max_entries`` / ``max_bytes`` budgets
  enforced by LRU eviction: every ``get`` refreshes the entry's file
  mtime, so the recency order is *persisted* and a store reopened after a
  restart evicts in the same order a continuously running one would.
* **Concurrency safety** — one writer lock serializes every mutation (the
  server additionally routes all writes through its single event-loop
  task), and all file writes are atomic rename publishes, so concurrent
  writers — even across processes sharing the directory — can interleave
  arbitrarily without a reader ever observing a torn entry.
* **Recovery, not crashes** — a truncated or corrupt entry reads as a
  miss, is deleted, and is recomputed; accounting is rebuilt by scanning
  the directory, so external deletions or writes are absorbed.
* **Observability** — hit/miss/eviction/corruption counters are kept on
  the store *and* threaded through :mod:`repro.tracing`
  (``service.store.hits`` et al., documented in docs/metrics.md).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro.errors import ServiceError
from repro.telemetry import PathLike, ResultCache
from repro.tracing import NULL_TRACER


class SharedResultStore(ResultCache):
    """A size-bounded, lock-protected, counter-instrumented result cache.

    Drop-in compatible with :class:`~repro.telemetry.ResultCache` (it can
    be passed to :func:`repro.experiments.parallel.run_battery` via the
    ``cache`` parameter), plus LRU/size eviction and counters.  See the
    module docstring and docs/service.md for the policy.
    """

    def __init__(
        self,
        root: PathLike,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        tracer=NULL_TRACER,
    ) -> None:
        """Open (creating if needed) the store rooted at ``root``.

        ``max_entries`` / ``max_bytes`` are eviction budgets (``None`` =
        unbounded); ``tracer`` receives the ``service.store.*`` counters.
        """
        if max_entries is not None and max_entries < 1:
            raise ServiceError(
                f"max_entries must be >= 1 or None, got {max_entries}"
            )
        if max_bytes is not None and max_bytes < 1:
            raise ServiceError(
                f"max_bytes must be >= 1 or None, got {max_bytes}"
            )
        super().__init__(root)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.tracer = tracer
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt_dropped = 0
        self._lock = threading.RLock()
        #: key -> file size, least-recently-used first.
        self._lru: "OrderedDict[str, int]" = OrderedDict()
        self._total_bytes = 0
        self.refresh()

    # --- accounting ----------------------------------------------------

    def refresh(self) -> None:
        """Rebuild the LRU index and size accounting from the directory.

        Entries are ordered by persisted mtime (oldest first), so a
        reopened store evicts in the same order as the store that wrote
        the entries.  Called at construction; call again to absorb
        external writes or deletions.
        """
        with self._lock:
            self._lru = OrderedDict(
                (path.stem, path.stat().st_size) for path in self.entries()
            )
            self._total_bytes = sum(self._lru.values())

    def counters(self) -> Dict[str, Any]:
        """JSON-safe snapshot of accounting and hit/miss/eviction counters."""
        with self._lock:
            return {
                "entries": len(self._lru),
                "bytes": self._total_bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "corrupt_dropped": self.corrupt_dropped,
            }

    # --- cache operations ----------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload under ``key`` or ``None``; refreshes LRU recency.

        A hit touches the entry's mtime (persisting its recency) and moves
        it to the back of the eviction queue.  A corrupt entry is deleted
        and counted (``service.store.corrupt``) — recovered as a miss.
        """
        with self._lock:
            path = self.path_for(key)
            payload = self.read_entry(key)
            if payload is None:
                if path.exists():
                    # present but unreadable/mismatched: drop it so the
                    # recompute can publish a clean entry
                    self._drop(key, path)
                    self.corrupt_dropped += 1
                    self.tracer.count("service.store.corrupt")
                self.misses += 1
                self.tracer.count("service.store.misses")
                return None
            os.utime(path)
            if key in self._lru:
                self._lru.move_to_end(key)
            else:  # written by another process since the last refresh
                self._lru[key] = path.stat().st_size
                self._total_bytes += self._lru[key]
            self.hits += 1
            self.tracer.count("service.store.hits")
            return payload

    def put(self, key: str, descriptor: Mapping[str, Any], payload: Any) -> Path:
        """Store ``payload`` under ``key``, then evict down to budget.

        The entry just written is never evicted by its own ``put`` — the
        budgets bound the store *between* operations, so even
        ``max_entries=1`` caches the most recent result.
        """
        with self._lock:
            if key in self._lru:
                self._total_bytes -= self._lru.pop(key)
            path = super().put(key, descriptor, payload)
            size = path.stat().st_size
            self._lru[key] = size
            self._total_bytes += size
            self._evict()
            return path

    def _drop(self, key: str, path: Path) -> None:
        """Remove one entry file and its accounting (lock held)."""
        if key in self._lru:
            self._total_bytes -= self._lru.pop(key)
        try:
            path.unlink()
        except FileNotFoundError:
            pass

    def _over_budget(self) -> bool:
        if self.max_entries is not None and len(self._lru) > self.max_entries:
            return True
        if self.max_bytes is not None and self._total_bytes > self.max_bytes:
            return True
        return False

    def _evict(self) -> None:
        """Evict least-recently-used entries until within budget (lock held)."""
        while len(self._lru) > 1 and self._over_budget():
            key = next(iter(self._lru))
            self._drop(key, self.path_for(key))
            self.evictions += 1
            self.tracer.count("service.store.evictions")
