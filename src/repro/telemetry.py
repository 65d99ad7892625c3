"""Run telemetry: structured manifests and a content-keyed result cache.

Every experiment-runner invocation can record *what it ran and what it
cost*: one :class:`JobRecord` per executed job (wall time, worker id,
cache hit/miss, simulator counters) rolled up into a :class:`RunTelemetry`
manifest that serializes to a single JSON document.  Alongside it,
:class:`ResultCache` persists each job's payload keyed by a content hash of
the job descriptor — ``(kind, benchmark, trace_length, seed)`` plus the
fingerprint of the five Table 2 configurations — so re-running an unchanged
job is a disk read instead of a simulation.

Job-decomposition contract
--------------------------
The cached unit is the *job payload*: the JSON-safe dict returned by an
experiment module's ``compute`` function (see
:mod:`repro.experiments.parallel`).  Payloads must survive a JSON
round-trip unchanged (string keys, lists, floats/ints/strings only), which
is what guarantees a cache hit merges byte-identically to a fresh compute.

Manifest schema (``MANIFEST_SCHEMA_VERSION = 1``)::

    {
      "schema_version": 1,
      "run": {jobs, cache_dir, cache_enabled, trace_length, seed,
              benchmarks, experiments, config_fingerprint, wall_time_s},
      "totals": {jobs, cache_hits, cache_misses, wall_time_s},
      "jobs": [{key, kind, benchmark, trace_length, seed, experiments,
                worker, wall_time_s, cache_hit, counters}, ...],
      "trace": {...}   # optional: TraceCollector.summary() when the run
                       # was traced (see docs/metrics.md); absent otherwise
    }
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.errors import ReproError
from repro.io import canonical_json, load_json, write_json_atomic

PathLike = Union[str, Path]

#: Schema version stamped into every manifest this module writes.
MANIFEST_SCHEMA_VERSION = 1

#: Schema version stamped into every cache entry; bump to invalidate.
CACHE_SCHEMA_VERSION = 1


def content_key(descriptor: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of the canonical JSON of ``descriptor``."""
    return hashlib.sha256(canonical_json(descriptor).encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def config_fingerprint() -> str:
    """Content hash of the five Table 2 configurations.

    Folded into every cache key so that editing any geometry, retention or
    technology parameter invalidates stale cache entries instead of serving
    them silently.
    """
    from repro.config import all_configs

    payload = {
        name: dataclasses.asdict(config) for name, config in all_configs().items()
    }
    return content_key(payload)


@dataclass
class JobRecord:
    """Telemetry for one executed (or cache-served) job."""

    key: str
    kind: str
    benchmark: Optional[str]
    trace_length: Optional[int]
    seed: Optional[int]
    experiments: List[str]
    worker: int
    wall_time_s: float
    cache_hit: bool
    counters: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Flatten to the manifest's JSON-safe job entry."""
        return dataclasses.asdict(self)


@dataclass
class RunTelemetry:
    """Accumulates :class:`JobRecord` entries and renders the manifest."""

    jobs: int = 1
    cache_dir: Optional[str] = None
    cache_enabled: bool = False
    trace_length: Optional[int] = None
    seed: Optional[int] = None
    benchmarks: Optional[List[str]] = None
    experiments: List[str] = field(default_factory=list)
    records: List[JobRecord] = field(default_factory=list)
    wall_time_s: float = 0.0
    trace: Optional[Dict[str, Any]] = None

    def record(self, record: JobRecord) -> None:
        """Append one job's telemetry."""
        self.records.append(record)

    def attach_trace(self, summary: Mapping[str, Any]) -> None:
        """Attach a :meth:`~repro.tracing.TraceCollector.summary` document.

        The summary (flat counters, histogram digests, event/drop totals) is
        embedded under the manifest's optional ``"trace"`` key.  Readers of
        schema version 1 manifests must tolerate its absence — it only
        appears for runs executed with tracing enabled.
        """
        self.trace = dict(summary)

    @property
    def cache_hits(self) -> int:
        """Number of jobs served from the result cache."""
        return sum(1 for r in self.records if r.cache_hit)

    @property
    def cache_misses(self) -> int:
        """Number of jobs actually computed."""
        return sum(1 for r in self.records if not r.cache_hit)

    def manifest(self) -> Dict[str, Any]:
        """The full manifest document (JSON-safe)."""
        return {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "run": {
                "jobs": self.jobs,
                "cache_dir": self.cache_dir,
                "cache_enabled": self.cache_enabled,
                "trace_length": self.trace_length,
                "seed": self.seed,
                "benchmarks": self.benchmarks,
                "experiments": list(self.experiments),
                "config_fingerprint": config_fingerprint(),
                "wall_time_s": self.wall_time_s,
            },
            "totals": {
                "jobs": len(self.records),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "wall_time_s": sum(r.wall_time_s for r in self.records),
            },
            "jobs": [r.to_dict() for r in self.records],
            **({"trace": self.trace} if self.trace is not None else {}),
        }

    def write(self, path: PathLike) -> None:
        """Write the manifest JSON to ``path`` atomically."""
        write_json_atomic(self.manifest(), path)


class ResultCache:
    """Content-keyed on-disk cache of job payloads.

    Layout: ``<root>/<key[:2]>/<key>.json``, one JSON document per entry
    holding the descriptor (for debuggability) and the payload.  Writes are
    atomic; corrupt or mismatched entries read as misses, never as wrong
    results.

    :class:`repro.service.SharedResultStore` extends this class with
    LRU/size eviction, hit/miss/eviction counters and a writer lock — the
    concurrency-safe store behind the simulation service (docs/service.md).
    Both share one key space, so a battery run with ``--cache-dir`` and a
    service pointed at the same directory serve each other's entries.
    """

    def __init__(self, root: PathLike) -> None:
        """Create (if needed) and wrap the cache directory ``root``."""
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives on disk."""
        return self.root / key[:2] / f"{key}.json"

    def read_entry(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload under ``key``; ``None`` for absent/corrupt/mismatched.

        A truncated or otherwise unreadable entry is a *miss*, never an
        error: callers recompute and overwrite it.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            entry = load_json(path)
        except ReproError:
            return None  # corrupt entry: recompute rather than fail the run
        if (
            entry.get("cache_schema_version") != CACHE_SCHEMA_VERSION
            or entry.get("key") != key
        ):
            return None
        return entry.get("payload")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload cached under ``key``, or ``None`` on a miss."""
        return self.read_entry(key)

    def put(self, key: str, descriptor: Mapping[str, Any], payload: Any) -> Path:
        """Store ``payload`` under ``key``; returns the path written.

        The descriptor is kept alongside the payload for debuggability.
        """
        entry = {
            "cache_schema_version": CACHE_SCHEMA_VERSION,
            "key": key,
            "descriptor": dict(descriptor),
            "payload": payload,
        }
        path = self.path_for(key)
        write_json_atomic(entry, path)
        return path

    def entries(self) -> List[Path]:
        """Every entry file on disk, oldest modification first.

        The deterministic (mtime, name) order is what lets an eviction
        scan rebuilt after a restart agree with the order writes happened.
        """
        return sorted(
            self.root.glob("*/*.json"),
            key=lambda p: (p.stat().st_mtime, p.name),
        )

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        return sum(1 for _ in self.root.glob("*/*.json"))
