"""Simulation-as-a-service: an async JSON-over-TCP front end for repro.

The package turns the one-shot ``repro.simulate()`` /
``run_battery()`` entry points into a long-running server with a shared
result store and request coalescing:

* :mod:`repro.service.protocol` — newline-delimited JSON framing,
  request validation against :mod:`repro.config`, and the canonical
  content digest every other layer keys on;
* :mod:`repro.service.store` — :class:`SharedResultStore`, the
  concurrency-safe promotion of :class:`repro.telemetry.ResultCache`
  with LRU/size eviction and hit/miss/eviction counters;
* :mod:`repro.service.dedup` — :class:`InflightTable`, which coalesces
  identical concurrent requests onto one running job;
* :mod:`repro.service.pool` — :class:`ShardedWorkerPool`, long-lived
  digest-routed single-worker executors;
* :mod:`repro.service.server` — :class:`SimulationServer` (the asyncio
  server) and :class:`ServerThread` (run it inside a test or host
  process);
* :mod:`repro.service.client` — :class:`ServiceClient`, the blocking
  client the CLI and the repo benchmark's ``service-mixed`` workload use.

Results are byte-identical to the direct library calls for the same
normalized parameters; see docs/service.md for the protocol, dedup
semantics and eviction policy.
"""

from repro.service.client import ServiceClient
from repro.service.dedup import InflightTable
from repro.service.pool import ShardedWorkerPool
from repro.service.protocol import (
    DEFAULT_PORT,
    PROTOCOL_VERSION,
    REQUEST_KINDS,
    request_digest,
    validate_request,
)
from repro.service.server import ServerThread, SimulationServer
from repro.service.store import SharedResultStore

__all__ = [
    "DEFAULT_PORT",
    "PROTOCOL_VERSION",
    "REQUEST_KINDS",
    "InflightTable",
    "ServerThread",
    "ServiceClient",
    "ShardedWorkerPool",
    "SharedResultStore",
    "SimulationServer",
    "request_digest",
    "validate_request",
]
