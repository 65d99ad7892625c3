"""The asyncio simulation server: validate, coalesce, dispatch, respond.

:class:`SimulationServer` is the long-running front door over every
replay engine in the repository.  One ``asyncio`` event loop owns all
bookkeeping (store writes, dedup table, counters) — the single-writer
discipline that makes the shared state trivially consistent — while the
actual simulations run on a :class:`~repro.service.pool.ShardedWorkerPool`
off the loop, so the server keeps accepting, validating and cache-serving
requests while workers replay.

Request lifecycle (``simulate``)::

    line -> decode -> validate/normalize -> digest
         -> store.get(digest)        "hit"        (disk, ~ms)
         -> inflight.run(digest)     "coalesced"  (await the leader)
         -> pool.run(compute)        "miss"       (leader computes,
                                                   single-writer store.put)

``experiment`` requests decompose through the exact
:func:`repro.experiments.parallel.decompose` /
:func:`~repro.experiments.parallel.job_key` /
:func:`~repro.experiments.parallel.merge_experiment` contract the battery
CLI uses — per-spec payloads are cached and coalesced individually under
their battery-compatible keys, then merged by the same merge code, so the
service, the battery and the serial path all return byte-identical
results.

Shutdown is **draining**: a ``shutdown`` request (or
:meth:`SimulationServer.request_shutdown`) stops the listener, lets every
request already received run to completion and its response flush, then
closes idle connections and worker pools.  The service-smoke CI job
asserts this by shutting down mid-flight and still receiving the slow
response.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from typing import Any, Callable, Dict, Optional

from repro.errors import ServiceError, SurrogateError
from repro.service import protocol
from repro.service.dedup import InflightTable
from repro.service.pool import ShardedWorkerPool, compute_experiment_job, compute_simulate
from repro.service.store import SharedResultStore
from repro.surrogate.model import SurrogateOracle
from repro.tracing import NULL_TRACER, TraceCollector

#: How long a draining shutdown waits for in-flight work, in seconds.
DEFAULT_DRAIN_TIMEOUT_S = 600.0


class SimulationServer:
    """JSON-over-TCP simulation service (see the module docstring)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store: Optional[SharedResultStore] = None,
        pool: Optional[ShardedWorkerPool] = None,
        tracer: Optional[TraceCollector] = None,
        log: Optional[Callable[[str], None]] = None,
        drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
        oracle: Optional[SurrogateOracle] = None,
    ) -> None:
        """Configure a server (no sockets are opened until :meth:`serve`).

        ``port=0`` binds an ephemeral port (read it from :attr:`port`
        after startup).  ``store=None`` disables result caching but not
        coalescing.  ``log`` receives one human-readable line per
        lifecycle event (default: stderr).  ``oracle=None`` builds a lazy
        :class:`~repro.surrogate.model.SurrogateOracle` sharing the store
        as its anchor/feature cache — ``predict`` requests are answered by
        the surrogate, never the worker pool.
        """
        self.host = host
        self.port = port
        self.store = store
        self.pool = pool if pool is not None else ShardedWorkerPool()
        self.tracer = tracer if tracer is not None else TraceCollector(max_events=0)
        # a store constructed without its own tracer adopts the server's,
        # so service.store.* counters land in the same collector
        if self.store is not None and self.store.tracer is NULL_TRACER:
            self.store.tracer = self.tracer
        self.drain_timeout_s = drain_timeout_s
        self._log_fn = log
        self.oracle = oracle if oracle is not None else SurrogateOracle(
            cache=self.store, tracer=self.tracer
        )
        self.inflight = InflightTable(self.tracer)
        #: set once the listener is bound; ServerThread waits on it
        self.ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._closing = False
        self._outstanding = 0
        self._writers: set = set()
        self._conn_tasks: set = set()
        self._started_monotonic = 0.0

    # --- logging / small helpers ---------------------------------------

    def _log(self, message: str) -> None:
        if self._log_fn is not None:
            self._log_fn(message)
        else:
            print(f"repro-sttgpu serve: {message}", file=sys.stderr, flush=True)

    def _begin_request(self) -> None:
        self._outstanding += 1
        assert self._idle is not None
        self._idle.clear()

    def _end_request(self) -> None:
        self._outstanding -= 1
        if self._outstanding == 0:
            assert self._idle is not None
            self._idle.set()

    # --- request handlers -----------------------------------------------

    async def _handle_simulate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        digest = protocol.request_digest(request)
        if self.store is not None:
            cached = self.store.get(digest)
            if cached is not None:
                self.tracer.count("service.simulate.hits")
                return protocol.ok_response(
                    "simulate", digest=digest, cache="hit", payload=cached
                )

        async def leader() -> Dict[str, Any]:
            payload = await self.pool.run(digest, compute_simulate, request)
            if self.store is not None:
                # single-writer discipline: only the leader task, on the
                # event loop, ever publishes this digest
                self.store.put(digest, request, payload)
            self.tracer.count("service.jobs.simulate")
            return payload

        payload, coalesced = await self.inflight.run(digest, leader)
        provenance = "coalesced" if coalesced else "miss"
        self.tracer.count(
            "service.simulate.coalesced" if coalesced
            else "service.simulate.misses"
        )
        return protocol.ok_response(
            "simulate", digest=digest, cache=provenance, payload=payload
        )

    async def _handle_predict(self, request: Dict[str, Any]) -> Dict[str, Any]:
        digest = protocol.request_digest(request)
        if self.store is not None:
            cached = self.store.get(digest)
            if cached is not None:
                self.tracer.count("service.predict.hits")
                return protocol.ok_response(
                    "predict", digest=digest, cache="hit", payload=cached
                )

        async def leader() -> Dict[str, Any]:
            # the surrogate answers off-loop but never touches the worker
            # pool: a cold (config, benchmark) pair costs two anchor
            # simulations on a helper thread, a warm one is microseconds
            payload = await asyncio.to_thread(
                self.oracle.predict,
                request["config"],
                request["benchmark"],
                request["trace_length"],
                request["seed"],
            )
            if self.store is not None:
                self.store.put(digest, request, payload)
            self.tracer.count("service.jobs.predict")
            return payload

        payload, coalesced = await self.inflight.run(digest, leader)
        provenance = "coalesced" if coalesced else "miss"
        self.tracer.count(
            "service.predict.coalesced" if coalesced
            else "service.predict.misses"
        )
        return protocol.ok_response(
            "predict", digest=digest, cache=provenance, payload=payload
        )

    async def _run_experiment_spec(self, spec) -> Dict[str, Any]:
        from repro.experiments.parallel import job_descriptor, job_key

        key = job_key(spec)
        if self.store is not None:
            cached = self.store.get(key)
            if cached is not None:
                return cached

        async def leader() -> Dict[str, Any]:
            fields = (spec.kind, spec.benchmark, spec.trace_length, spec.seed)
            payload = await self.pool.run(key, compute_experiment_job, fields)
            if self.store is not None:
                self.store.put(key, job_descriptor(spec), payload)
            self.tracer.count("service.jobs.experiment")
            return payload

        payload, _ = await self.inflight.run(key, leader)
        return payload

    async def _handle_experiment(self, request: Dict[str, Any]) -> Dict[str, Any]:
        from repro.experiments.parallel import decompose, merge_experiment
        from repro.io import experiment_result_to_dict

        digest = protocol.request_digest(request)
        specs = decompose(
            request["experiment"],
            trace_length=request["trace_length"],
            benchmarks=request["benchmarks"],
            seed=request["seed"],
        )
        # fan the specs out concurrently; digest routing spreads them over
        # the pool shards and per-spec coalescing dedups across clients
        payload_list = await asyncio.gather(
            *(self._run_experiment_spec(spec) for spec in specs)
        )
        payloads = dict(zip(specs, payload_list))
        result = merge_experiment(request["experiment"], specs, payloads)
        return protocol.ok_response(
            "experiment",
            digest=digest,
            jobs=len(specs),
            payload=experiment_result_to_dict(result),
        )

    def _stats(self) -> Dict[str, Any]:
        counters = self.tracer.counters_dict()
        latency = self.tracer.histogram("service.request_latency_s")
        stats: Dict[str, Any] = {
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime_s": time.monotonic() - self._started_monotonic,
            "requests_total": int(counters.get("service.requests", 0)),
            "errors": int(counters.get("service.errors", 0)),
            "cache": {
                "hits": int(counters.get("service.simulate.hits", 0)),
                "misses": int(counters.get("service.simulate.misses", 0)),
                "coalesced": int(counters.get("service.simulate.coalesced", 0)),
            },
            "jobs": {
                "simulate": int(counters.get("service.jobs.simulate", 0)),
                "experiment": int(counters.get("service.jobs.experiment", 0)),
                "predict": int(counters.get("service.jobs.predict", 0)),
            },
            "predict": {
                "hits": int(counters.get("service.predict.hits", 0)),
                "misses": int(counters.get("service.predict.misses", 0)),
                "coalesced": int(counters.get("service.predict.coalesced", 0)),
                "fitted_pairs": self.oracle.fitted_pairs,
            },
            "simulations_run": int(counters.get("service.jobs.simulate", 0)),
            "dedup": {
                "leaders": self.inflight.leaders,
                "coalesced": self.inflight.coalesced,
                "inflight": self.inflight.inflight,
            },
            "outstanding": self._outstanding,
            "pool": self.pool.describe(),
            "store": self.store.counters() if self.store is not None else None,
        }
        if latency is not None and latency.count:
            stats["latency"] = {
                "count": latency.count,
                "mean_ms": latency.mean * 1e3,
                "p50_ms": latency.percentile(50) * 1e3,
                "p99_ms": latency.percentile(99) * 1e3,
            }
        return stats

    async def _dispatch(self, raw_line: bytes) -> Dict[str, Any]:
        try:
            request = protocol.validate_request(protocol.decode_line(raw_line))
        except ServiceError as error:
            self.tracer.count("service.errors")
            return protocol.error_response(str(error))
        if self._closing and request["kind"] not in ("ping", "stats"):
            self.tracer.count("service.errors")
            return protocol.error_response("server is shutting down")
        try:
            if request["kind"] == "ping":
                return protocol.ok_response(
                    "pong", protocol=protocol.PROTOCOL_VERSION
                )
            if request["kind"] == "stats":
                return protocol.ok_response("stats", stats=self._stats())
            if request["kind"] == "shutdown":
                self._log("shutdown requested; draining in-flight jobs")
                assert self._shutdown is not None
                self._shutdown.set()
                return protocol.ok_response("shutdown", draining=True)
            if request["kind"] == "simulate":
                return await self._handle_simulate(request)
            if request["kind"] == "predict":
                return await self._handle_predict(request)
            assert request["kind"] == "experiment"
            return await self._handle_experiment(request)
        except (ServiceError, SurrogateError) as error:
            self.tracer.count("service.errors")
            return protocol.error_response(str(error))
        except Exception as error:  # defensive: a bug must not kill the server
            self.tracer.count("service.errors")
            self._log(f"internal error: {type(error).__name__}: {error}")
            return protocol.error_response(
                f"internal error: {type(error).__name__}: {error}"
            )

    # --- connection handling ---------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    raw = await reader.readline()
                except (ValueError, ConnectionResetError):
                    break  # over-long line or peer reset: drop the connection
                if not raw:
                    break
                self._begin_request()
                try:
                    self.tracer.count("service.requests")
                    started = time.perf_counter()
                    response = await self._dispatch(raw)
                    self.tracer.observe(
                        "service.request_latency_s",
                        time.perf_counter() - started,
                    )
                    writer.write(protocol.encode_message(response))
                    await writer.drain()
                finally:
                    self._end_request()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()

    # --- lifecycle --------------------------------------------------------

    def request_shutdown(self) -> None:
        """Trigger a draining shutdown from any thread (idempotent)."""
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None and not loop.is_closed():
            loop.call_soon_threadsafe(shutdown.set)

    async def serve(self) -> None:
        """Bind, announce, serve until shutdown, then drain and close."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._started_monotonic = time.monotonic()
        server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.port = server.sockets[0].getsockname()[1]
        self._log(f"listening on {self.host}:{self.port}")
        self.ready.set()
        try:
            async with server:
                await self._shutdown.wait()
                self._closing = True
                server.close()
                await server.wait_closed()
                # drain: every request already received completes and its
                # response is flushed before any connection is torn down
                try:
                    await asyncio.wait_for(
                        self._idle.wait(), timeout=self.drain_timeout_s
                    )
                except asyncio.TimeoutError:
                    self._log(
                        f"drain timed out after {self.drain_timeout_s}s "
                        f"with {self._outstanding} request(s) outstanding"
                    )
                await self.inflight.drain()
        finally:
            for writer in list(self._writers):
                writer.close()
            # let idle connection tasks observe EOF and finish on their own;
            # cancelling them instead would trip asyncio's stream-protocol
            # completion callback when asyncio.run() tears the loop down
            if self._conn_tasks:
                try:
                    await asyncio.wait_for(
                        asyncio.gather(
                            *list(self._conn_tasks), return_exceptions=True
                        ),
                        timeout=5.0,
                    )
                except asyncio.TimeoutError:
                    pass
            self.pool.shutdown()
            self.ready.clear()
            self._log("shutdown complete")


class ServerThread:
    """Run a :class:`SimulationServer` on a background thread.

    The embedding used by the test suite and by any host application
    that wants the service in-process::

        with ServerThread(SimulationServer(port=0)) as server:
            client = ServiceClient(port=server.port)
            ...

    Entering the context starts the loop thread and waits for the
    listener to bind; leaving it requests a draining shutdown and joins
    the thread.
    """

    def __init__(self, server: SimulationServer, startup_timeout_s: float = 30.0):
        """Wrap ``server``; nothing starts until :meth:`start`."""
        self.server = server
        self.startup_timeout_s = startup_timeout_s
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        """The bound port (valid once :meth:`start` has returned)."""
        return self.server.port

    def _run(self) -> None:
        try:
            asyncio.run(self.server.serve())
        except BaseException as error:  # surfaced by start()/stop()
            self._error = error

    def start(self) -> "ServerThread":
        """Start the loop thread and wait until the listener is bound."""
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self.server.ready.wait(self.startup_timeout_s):
            if self._error is not None:
                raise ServiceError(
                    f"server failed to start: {self._error}"
                ) from self._error
            raise ServiceError(
                f"server did not bind within {self.startup_timeout_s}s"
            )
        return self

    def stop(self, timeout_s: float = 60.0) -> None:
        """Request a draining shutdown and join the loop thread."""
        self.server.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout_s)
            if self._thread.is_alive():
                raise ServiceError(
                    f"server thread did not exit within {timeout_s}s"
                )
        if self._error is not None:
            raise ServiceError(
                f"server thread failed: {self._error}"
            ) from self._error

    def __enter__(self) -> "ServerThread":
        """Start on context entry."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Drain and join on context exit."""
        self.stop()
