"""Tests for the simulation service: protocol, store, dedup, server, bench.

Covers the service contracts docs/service.md promises:

* request validation/normalization and the canonical coalescing digest;
* :class:`~repro.service.store.SharedResultStore` — LRU eviction order,
  size accounting, corrupted-entry recovery, concurrent-writer
  consistency, persistence of recency across reopen;
* :class:`~repro.service.dedup.InflightTable` — N identical concurrent
  requests run ONE computation;
* the live server — byte-identity with ``repro.simulate()``, coalescing
  under a real concurrent burst, draining shutdown, error responses;
* the ``serve`` / ``submit`` CLI including the dead-server exit-2
  convention;
* the coalescing digest and payload SHA-256 of six pinned ``soa``
  requests, against the tier-1 digest table (``tests/pinned.py``).
"""

import asyncio
import hashlib
import os
import socket
import threading

import pytest

from repro.errors import ServiceConnectionError, ServiceError
from repro.io import canonical_json
from repro.service import (
    InflightTable,
    ServerThread,
    ServiceClient,
    SharedResultStore,
    SimulationServer,
    request_digest,
    validate_request,
)
from repro.service.pool import ShardedWorkerPool, compute_simulate
from repro.service.protocol import (
    decode_line,
    encode_message,
    read_response,
)
from tests.pinned import SERVICE_DIGESTS, SERVICE_TRACE_LENGTH

TRACE_LENGTH = 600  # small but non-trivial replay for live-server tests


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"kind": "ping", "nested": {"b": 2, "a": 1}}
        line = encode_message(message)
        assert line.endswith(b"\n")
        assert decode_line(line) == message

    def test_decode_rejects_non_object(self):
        with pytest.raises(ServiceError):
            decode_line(b"[1, 2]\n")
        with pytest.raises(ServiceError):
            decode_line(b"not json\n")

    def test_read_response_empty_means_connection_lost(self):
        with pytest.raises(ServiceConnectionError):
            read_response(b"")

    def test_validate_fills_defaults_and_resolves_engine(self):
        normalized = validate_request(
            {"kind": "simulate", "benchmark": "bfs", "config": "C1"}
        )
        assert normalized["seed"] == 0
        assert normalized["trace_length"] > 0
        assert normalized["engine"] in ("soa", "object")

    def test_equivalent_requests_share_one_digest(self):
        implicit = validate_request(
            {"kind": "simulate", "benchmark": "bfs", "config": "C1",
             "trace_length": 500}
        )
        explicit = validate_request(
            {"kind": "simulate", "benchmark": "bfs", "config": "C1",
             "trace_length": 500, "seed": 0, "engine": implicit["engine"]}
        )
        assert request_digest(implicit) == request_digest(explicit)

    def test_digest_is_parameter_sensitive(self):
        base = validate_request(
            {"kind": "simulate", "benchmark": "bfs", "config": "C1",
             "trace_length": 500}
        )
        other = validate_request(
            {"kind": "simulate", "benchmark": "bfs", "config": "C1",
             "trace_length": 500, "seed": 1}
        )
        assert request_digest(base) != request_digest(other)

    @pytest.mark.parametrize("request_obj", [
        {"kind": "warp"},
        {"kind": "simulate", "benchmark": "nope", "config": "C1"},
        {"kind": "simulate", "benchmark": "bfs", "config": "C9"},
        {"kind": "simulate", "benchmark": "bfs", "config": "C1",
         "trace_length": 0},
        {"kind": "simulate", "benchmark": "bfs", "config": "C1",
         "trace_length": 10**9},
        {"kind": "simulate", "benchmark": "bfs", "config": "C1",
         "engine": "soa", "shards": 4},
        {"kind": "experiment", "experiment": "table9"},
        {"kind": "experiment", "experiment": "table1", "benchmarks": []},
        {"kind": "experiment", "experiment": "table1",
         "benchmarks": ["nope"]},
    ])
    def test_invalid_requests_are_rejected(self, request_obj):
        with pytest.raises(ServiceError):
            validate_request(request_obj)


def _fill(store, keys, payload_size=64):
    for index, key in enumerate(keys):
        store.put(key, {"k": key}, {"data": "x" * payload_size, "i": index})
        # force strictly increasing mtimes so recency order is unambiguous
        os.utime(store.path_for(key), (1_000_000 + index, 1_000_000 + index))


class TestSharedResultStore:
    def test_lru_evicts_oldest_beyond_entry_budget(self, tmp_path):
        store = SharedResultStore(tmp_path, max_entries=2)
        _fill(store, ["a" * 8, "b" * 8, "c" * 8])
        assert store.get("a" * 8) is None  # evicted first (oldest)
        assert store.get("b" * 8) is not None
        assert store.get("c" * 8) is not None
        assert store.evictions == 1

    def test_get_refreshes_recency_before_eviction(self, tmp_path):
        store = SharedResultStore(tmp_path, max_entries=2)
        _fill(store, ["a" * 8, "b" * 8])
        assert store.get("a" * 8) is not None  # now most recent
        store.put("c" * 8, {}, {"v": 3})
        assert store.get("b" * 8) is None  # b became the LRU victim
        assert store.get("a" * 8) is not None

    def test_newest_entry_is_never_evicted(self, tmp_path):
        store = SharedResultStore(tmp_path, max_entries=1)
        _fill(store, ["a" * 8, "b" * 8])
        assert store.entry_count == 1
        assert store.get("b" * 8) is not None

    def test_size_accounting_matches_disk(self, tmp_path):
        store = SharedResultStore(tmp_path)
        _fill(store, ["a" * 8, "b" * 8, "c" * 8])
        on_disk = sum(p.stat().st_size for p in store.entries())
        assert store.total_bytes == on_disk
        assert store.entry_count == 3

    def test_byte_budget_evicts_down(self, tmp_path):
        store = SharedResultStore(tmp_path)
        _fill(store, ["a" * 8], payload_size=64)
        entry_bytes = store.total_bytes
        store.max_bytes = entry_bytes * 2
        _fill(store, ["b" * 8, "c" * 8], payload_size=64)
        assert store.entry_count <= 2
        assert store.total_bytes <= store.max_bytes
        assert store.get("c" * 8) is not None  # newest survives

    def test_corrupt_entry_is_a_miss_not_a_crash(self, tmp_path):
        store = SharedResultStore(tmp_path)
        _fill(store, ["a" * 8])
        path = store.path_for("a" * 8)
        path.write_text('{"truncated')  # simulate a torn write
        assert store.get("a" * 8) is None
        assert store.corrupt_dropped == 1
        assert not path.exists()  # dropped so a recompute publishes clean
        # the store recovers: a fresh put works and reads back
        store.put("a" * 8, {"k": "a"}, {"v": 1})
        assert store.get("a" * 8) == {"v": 1}

    def test_recency_persists_across_reopen(self, tmp_path):
        first = SharedResultStore(tmp_path)
        _fill(first, ["a" * 8, "b" * 8, "c" * 8])
        assert first.get("a" * 8) is not None  # touches mtime: now newest
        reopened = SharedResultStore(tmp_path, max_entries=2)
        assert reopened.entry_count == 3  # budgets bound between operations
        # the next put evicts down by the *persisted* recency: the touched
        # "a" must survive, the untouched oldest entries must not
        reopened.put("d" * 8, {}, {"v": 4})
        assert reopened.get("a" * 8) is not None
        assert reopened.get("b" * 8) is None

    def test_concurrent_writers_stay_consistent(self, tmp_path):
        store = SharedResultStore(tmp_path)
        keys = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(40)]

        def write(subset):
            for key in subset:
                store.put(key, {"k": key}, {"v": key})
                assert store.get(key) == {"v": key}

        threads = [
            threading.Thread(target=write, args=(keys[i::4],))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.entry_count == len(keys)
        on_disk = sum(p.stat().st_size for p in store.entries())
        assert store.total_bytes == on_disk
        for key in keys:
            assert store.get(key) == {"v": key}

    def test_budget_validation(self, tmp_path):
        with pytest.raises(ServiceError):
            SharedResultStore(tmp_path, max_entries=0)
        with pytest.raises(ServiceError):
            SharedResultStore(tmp_path, max_bytes=0)


class TestInflightTable:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_identical_digests_run_once(self):
        table = InflightTable()
        calls = []

        async def factory():
            calls.append(1)
            await asyncio.sleep(0.01)
            return {"v": 42}

        async def scenario():
            results = await asyncio.gather(
                *(table.run("d" * 64, factory) for _ in range(5))
            )
            return results

        results = self._run(scenario())
        assert len(calls) == 1
        assert sum(1 for _, coalesced in results if coalesced) == 4
        assert all(value == {"v": 42} for value, _ in results)
        assert table.leaders == 1
        assert table.coalesced == 4

    def test_distinct_digests_run_separately(self):
        table = InflightTable()
        calls = []

        async def factory():
            calls.append(1)
            return {"v": len(calls)}

        async def scenario():
            return await asyncio.gather(
                table.run("a" * 64, factory), table.run("b" * 64, factory)
            )

        self._run(scenario())
        assert len(calls) == 2
        assert table.coalesced == 0

    def test_leader_failure_propagates_to_followers(self):
        table = InflightTable()

        async def factory():
            await asyncio.sleep(0.01)
            raise ServiceError("boom")

        async def scenario():
            tasks = [
                asyncio.ensure_future(table.run("c" * 64, factory))
                for _ in range(3)
            ]
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = self._run(scenario())
        assert all(isinstance(r, ServiceError) for r in results)

    def test_digest_is_reusable_after_completion(self):
        table = InflightTable()

        async def factory():
            return {"v": 1}

        async def scenario():
            await table.run("e" * 64, factory)
            await table.run("e" * 64, factory)

        self._run(scenario())
        assert table.leaders == 2  # sequential runs never coalesce
        assert table.coalesced == 0


@pytest.fixture(scope="module")
def live_server(tmp_path_factory):
    """One in-process server shared by the end-to-end tests."""
    store = SharedResultStore(tmp_path_factory.mktemp("store"))
    server = SimulationServer(
        port=0,
        store=store,
        pool=ShardedWorkerPool(shards=2),
        log=lambda line: None,
    )
    with ServerThread(server) as running:
        yield running


class TestServerEndToEnd:
    def test_ping(self, live_server):
        with ServiceClient(port=live_server.port) as client:
            pong = client.ping()
        assert pong["kind"] == "pong"

    def test_simulate_matches_direct_library_call(self, live_server):
        from repro import simulate
        from repro.config import all_configs
        from repro.io import simulation_result_to_dict
        from repro.workloads.suite import build_workload

        config = all_configs()["C1"]
        workload = build_workload(
            "bfs", num_accesses=TRACE_LENGTH, num_sms=config.num_sms, seed=0
        )
        direct = simulation_result_to_dict(simulate(config, workload))
        with ServiceClient(port=live_server.port) as client:
            response = client.simulate("bfs", "C1", trace_length=TRACE_LENGTH)
        assert canonical_json(response["payload"]) == canonical_json(direct)

    def test_repeat_is_a_cache_hit_with_identical_payload(self, live_server):
        with ServiceClient(port=live_server.port) as client:
            first = client.simulate("nn", "C2", trace_length=TRACE_LENGTH)
            second = client.simulate("nn", "C2", trace_length=TRACE_LENGTH)
        assert second["cache"] == "hit"
        assert canonical_json(first["payload"]) == canonical_json(
            second["payload"]
        )

    def test_concurrent_duplicates_run_one_simulation(self, live_server):
        before = live_server.server.tracer.counters_dict().get(
            "service.jobs.simulate", 0
        )
        responses = []
        lock = threading.Lock()

        def fire():
            with ServiceClient(port=live_server.port) as client:
                r = client.simulate("lbm", "C3", trace_length=TRACE_LENGTH)
            with lock:
                responses.append(r)

        threads = [threading.Thread(target=fire) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        after = live_server.server.tracer.counters_dict().get(
            "service.jobs.simulate", 0
        )
        assert after - before == 1  # the coalescing guarantee, by counter
        assert len({r["digest"] for r in responses}) == 1
        assert len(
            {canonical_json(r["payload"]) for r in responses}
        ) == 1

    def test_experiment_matches_direct_runner(self, live_server):
        from repro.experiments.runner import run_experiment
        from repro.io import experiment_result_to_dict

        direct = experiment_result_to_dict(
            run_experiment("table1", trace_length=TRACE_LENGTH)
        )
        with ServiceClient(port=live_server.port) as client:
            response = client.experiment("table1", trace_length=TRACE_LENGTH)
        assert response["jobs"] >= 1
        assert canonical_json(response["payload"]) == canonical_json(direct)

    def test_invalid_request_is_an_error_response_not_a_hangup(
        self, live_server
    ):
        with ServiceClient(port=live_server.port) as client:
            response = client.request(
                {"kind": "simulate", "benchmark": "nope", "config": "C1"}
            )
            assert response["ok"] is False
            assert "nope" in response["error"]
            # the connection survives the error
            assert client.ping()["ok"] is True

    def test_stats_shape(self, live_server):
        with ServiceClient(port=live_server.port) as client:
            stats = client.stats()
        for field in ("protocol", "cache", "jobs", "dedup", "pool", "store",
                      "latency", "simulations_run", "predict"):
            assert field in stats, field
        assert stats["pool"] == {"shards": 2}
        assert stats["store"]["entries"] >= 1
        assert set(stats["predict"]) == {
            "hits", "misses", "coalesced", "fitted_pairs"
        }


class TestServicePredict:
    def test_validate_fills_defaults_and_digests(self):
        normalized = validate_request(
            {"kind": "predict", "benchmark": "bfs", "config": "C1"}
        )
        assert normalized["seed"] == 0
        assert normalized["trace_length"] > 0
        assert "engine" not in normalized
        again = validate_request(
            {"kind": "predict", "benchmark": "bfs", "config": "C1",
             "seed": 0, "trace_length": normalized["trace_length"]}
        )
        assert request_digest(normalized) == request_digest(again)

    @pytest.mark.parametrize("request_obj", [
        {"kind": "predict", "benchmark": "nope", "config": "C1"},
        {"kind": "predict", "benchmark": "bfs", "config": "C9"},
        {"kind": "predict", "benchmark": "bfs", "config": "C1",
         "engine": "soa"},
        {"kind": "predict", "benchmark": "bfs", "config": "C1",
         "trace_length": 0},
    ])
    def test_invalid_predict_requests_are_rejected(self, request_obj):
        with pytest.raises(ServiceError):
            validate_request(request_obj)

    def test_predict_miss_then_hit_with_identical_payload(self, live_server):
        with ServiceClient(port=live_server.port) as client:
            first = client.predict("bfs", "C1", trace_length=TRACE_LENGTH)
            second = client.predict("bfs", "C1", trace_length=TRACE_LENGTH)
        assert first["cache"] in ("miss", "hit")  # miss unless a prior test warmed it
        assert second["cache"] == "hit"
        assert canonical_json(first["payload"]) == canonical_json(
            second["payload"]
        )
        payload = second["payload"]
        for field in ("ipc", "l2_hit_rate", "l1_hit_rate",
                      "l2_dynamic_energy_j", "l2_leakage_power_w", "via"):
            assert field in payload, field

    def test_predict_never_touches_the_worker_pool(self, live_server):
        before = live_server.server.tracer.counters_dict().get(
            "service.jobs.simulate", 0
        )
        with ServiceClient(port=live_server.port) as client:
            response = client.predict("nn", "C2", trace_length=777)
        assert response["ok"] is True
        after = live_server.server.tracer.counters_dict().get(
            "service.jobs.simulate", 0
        )
        assert after == before  # the surrogate answered, not the pool

    def test_concurrent_duplicate_predicts_fit_once(self, live_server):
        responses = []
        lock = threading.Lock()

        def fire():
            with ServiceClient(port=live_server.port) as client:
                r = client.predict("lbm", "C3", trace_length=TRACE_LENGTH)
            with lock:
                responses.append(r)

        threads = [threading.Thread(target=fire) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        counters = live_server.server.tracer.counters_dict()
        assert counters.get("service.jobs.predict", 0) >= 1
        assert len({r["digest"] for r in responses}) == 1
        assert len(
            {canonical_json(r["payload"]) for r in responses}
        ) == 1

    def test_engine_field_is_rejected_with_guidance(self, live_server):
        with ServiceClient(port=live_server.port) as client:
            response = client.request(
                {"kind": "predict", "benchmark": "bfs", "config": "C1",
                 "engine": "soa"}
            )
        assert response["ok"] is False
        assert "engine-independent" in response["error"]


class TestDrainingShutdown:
    def test_inflight_request_completes_after_shutdown(self, tmp_path):
        server = SimulationServer(
            port=0,
            store=SharedResultStore(tmp_path),
            pool=ShardedWorkerPool(shards=1),
            log=lambda line: None,
        )
        with ServerThread(server) as running:
            result = {}

            def slow():
                with ServiceClient(port=running.port) as client:
                    result["response"] = client.simulate(
                        "lbm", "C1", trace_length=50_000
                    )

            worker = threading.Thread(target=slow)
            worker.start()
            import time

            time.sleep(0.2)  # let the slow request reach the server
            with ServiceClient(port=running.port) as client:
                ack = client.shutdown()
            assert ack["draining"] is True
            worker.join(timeout=60)
            assert not worker.is_alive()
            assert result["response"]["ok"] is True


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestCli:
    def test_submit_against_dead_server_exits_2(self, capsys):
        from repro.cli import main

        code = main(["submit", "--ping", "--port", str(_free_port())])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1  # one-line diagnostic
        assert "cannot connect" in captured.err

    def test_submit_usage_errors_exit_2(self, capsys):
        from repro.cli import main

        assert main(["submit"]) == 2
        assert main(["submit", "bfs"]) == 2
        assert main(["submit", "--ping", "--stats"]) == 2

    def test_serve_rejects_bad_pool(self, capsys):
        from repro.cli import main

        assert main(["serve", "--pool-shards", "0"]) == 2
        assert "shards" in capsys.readouterr().err

    def test_submit_roundtrip_against_live_server(self, live_server, capsys):
        from repro.cli import main

        port = str(live_server.port)
        assert main(["submit", "--ping", "--port", port]) == 0
        assert main([
            "submit", "bfs", "C1", "--trace-length", str(TRACE_LENGTH),
            "--port", port,
        ]) == 0
        out = capsys.readouterr().out
        assert "digest" in out and "IPC" in out
        assert main(["submit", "--stats", "--port", port]) == 0

    def test_submit_unknown_benchmark_exits_1(self, live_server, capsys):
        from repro.cli import main

        code = main(
            ["submit", "nope", "C1", "--port", str(live_server.port)]
        )
        assert code == 1
        assert "nope" in capsys.readouterr().err


class TestPinnedDigests:
    @pytest.mark.parametrize("workload, config", sorted(SERVICE_DIGESTS))
    def test_request_and_payload_digests_are_pinned(self, workload, config):
        """The worker computes exactly the pinned payload for the pinned
        coalescing key; the server adds nothing to either."""
        request = validate_request({
            "kind": "simulate", "benchmark": workload, "config": config,
            "trace_length": SERVICE_TRACE_LENGTH, "seed": 0, "engine": "soa",
        })
        payload = compute_simulate(request)
        pinned = SERVICE_DIGESTS[(workload, config)]
        assert request_digest(request) == pinned["request"]
        assert hashlib.sha256(
            canonical_json(payload).encode("utf-8")
        ).hexdigest() == pinned["payload"]
