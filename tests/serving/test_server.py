"""TCP front-end: wire protocol, remote equivalence, overload shape."""

import json
import socket

import numpy as np
import pytest

from repro.core.queries import exact_match, knn_target_node_access
from repro.serving import (
    OverloadedError,
    QueryService,
    ServingClient,
    TardisServer,
    serve,
)


@pytest.fixture()
def running_server(tardis_small):
    server = serve(tardis_small, port=0, max_batch=4, max_delay_ms=1.0)
    server.start()
    yield server
    server.close()


class TestWireProtocol:
    def test_ping(self, running_server):
        host, port = running_server.address
        with ServingClient(host, port) as client:
            assert client.ping()

    def test_remote_knn_bit_identical(self, running_server, rw_small):
        host, port = running_server.address
        query = rw_small.values[3]
        local = knn_target_node_access(running_server.service.index, query, 7)
        with ServingClient(host, port) as client:
            remote = client.knn(query, k=7, strategy="target-node")
        assert remote["record_ids"] == local.record_ids
        # JSON round-trips floats exactly: bit-identical distances.
        assert remote["distances"] == local.distances

    def test_remote_exact_match(self, running_server, rw_small,
                                heldout_queries):
        host, port = running_server.address
        index = running_server.service.index
        with ServingClient(host, port) as client:
            present = client.exact_match(rw_small.values[9])
            absent = client.exact_match(heldout_queries[0])
        assert present["found"]
        assert present["record_ids"] == exact_match(
            index, rw_small.values[9]
        ).record_ids
        assert not absent["found"]
        assert absent["bloom_rejected"] == exact_match(
            index, heldout_queries[0]
        ).bloom_rejected

    def test_stats_reports_slo_fields(self, running_server, rw_small):
        host, port = running_server.address
        with ServingClient(host, port) as client:
            client.knn(rw_small.values[0], k=3)
            stats = client.stats()
        for field in (
            "requests_completed", "requests_shed", "queue_depth",
            "latency", "batch_occupancy_mean", "partitions_per_query",
            "result_cache_hit_rate",
        ):
            assert field in stats
        for pct in ("p50_s", "p95_s", "p99_s"):
            assert pct in stats["latency"]
        assert stats["requests_completed"] >= 1

    def test_multiple_requests_one_connection(self, running_server,
                                              rw_small):
        host, port = running_server.address
        with ServingClient(host, port) as client:
            for row in range(5):
                result = client.exact_match(rw_small.values[row])
                assert result["record_ids"] == [row]


class TestErrorShapes:
    def _raw_call(self, address, payload: bytes) -> dict:
        with socket.create_connection(address, timeout=10) as sock:
            handle = sock.makefile("rwb")
            handle.write(payload + b"\n")
            handle.flush()
            return json.loads(handle.readline())

    def test_malformed_json_is_bad_request(self, running_server):
        response = self._raw_call(running_server.address, b"{not json")
        assert response["ok"] is False
        assert response["error"]["type"] == "bad-request"

    def test_non_object_is_bad_request(self, running_server):
        response = self._raw_call(running_server.address, b"[1, 2, 3]")
        assert response["ok"] is False
        assert response["error"]["type"] == "bad-request"

    def test_missing_series_is_bad_request(self, running_server):
        response = self._raw_call(
            running_server.address, json.dumps({"op": "knn"}).encode()
        )
        assert response["ok"] is False
        assert response["error"]["type"] == "bad-request"

    def test_wrong_length_series_is_bad_request(self, running_server):
        response = self._raw_call(
            running_server.address,
            json.dumps({"op": "knn", "series": [1.0, 2.0]}).encode(),
        )
        assert response["ok"] is False
        assert response["error"]["type"] == "bad-request"

    def test_unknown_strategy_is_bad_request(self, running_server,
                                             rw_small):
        response = self._raw_call(
            running_server.address,
            json.dumps({
                "op": "knn",
                "series": rw_small.values[0].tolist(),
                "strategy": "warp",
            }).encode(),
        )
        assert response["ok"] is False
        assert response["error"]["type"] == "bad-request"

    def test_oversized_line_rejected_and_connection_closed(
        self, tardis_small, monkeypatch
    ):
        # A request longer than the line cap must be rejected cleanly and
        # the connection closed — not split at the cap and the remainder
        # parsed as phantom follow-up requests.
        monkeypatch.setattr("repro.serving.server.MAX_LINE_BYTES", 128)
        with serve(tardis_small, port=0, max_batch=2,
                   max_delay_ms=1.0) as server:
            with socket.create_connection(server.address,
                                          timeout=10) as sock:
                handle = sock.makefile("rwb")
                handle.write(b"x" * 400 + b"\n")
                handle.flush()
                response = json.loads(handle.readline())
                assert response["ok"] is False
                assert response["error"]["type"] == "bad-request"
                assert "exceeds" in response["error"]["message"]
                # The server closed the connection: no desynchronized
                # replies to the tail of the oversized line.
                assert handle.readline() == b""


class TestObservabilityOps:
    def test_journal_op_returns_records_and_stats(self, running_server,
                                                  rw_small):
        host, port = running_server.address
        with ServingClient(host, port) as client:
            client.knn(rw_small.values[1], k=3)
            payload = client.journal(n=10)
        assert payload["stats"]["total"] >= 1
        kinds = {r["kind"] for r in payload["records"]}
        assert "batch" in kinds
        # Kind filter narrows to the requested stream only.
        with ServingClient(host, port) as client:
            batches = client.journal(n=10, kind="batch")
        assert all(r["kind"] == "batch" for r in batches["records"])

    def test_trace_op_reports_disabled_tracer(self, running_server,
                                              rw_small):
        # running_server starts with the module tracer disabled: the op
        # answers (no error) but flags it, and a traced query carries a
        # null trace in its envelope.
        host, port = running_server.address
        with ServingClient(host, port) as client:
            listing = client.traces(n=5)
            assert listing["enabled"] is False
            client.knn(rw_small.values[0], k=3, trace=True)
            assert client.last_trace is None

    def test_trace_envelope_and_lookup(self, tardis_small, rw_small):
        from repro.telemetry.spans import disable_tracing, enable_tracing

        enable_tracing(reset=True)
        try:
            with serve(tardis_small, port=0, max_batch=4,
                       max_delay_ms=1.0) as server:
                host, port = server.address
                with ServingClient(host, port) as client:
                    client.knn(rw_small.values[5], k=3, trace=True)
                    trace = client.last_trace
                    assert trace is not None
                    assert trace["name"] == "serve/request"
                    assert trace["duration_s"] > 0
                    child_names = {c["name"] for c in trace["children"]}
                    assert {"serve/queue-wait", "serve/batch-wait",
                            "serve/execute"} <= child_names
                    # The same finished trace is retrievable by id.
                    listing = client.traces(trace_id=trace["trace_id"])
                    assert listing["enabled"] is True
                    assert listing["traces"][0]["trace_id"] == \
                        trace["trace_id"]
                    # An untraced query does not disturb last_trace…
                    # it resets it, so stale timelines can't be
                    # misattributed to the wrong request.
                    client.knn(rw_small.values[6], k=3)
                    assert client.last_trace is None
        finally:
            disable_tracing()


class TestOverload:
    def test_shed_policy_surfaces_overloaded_error(self, tardis_small,
                                                   rw_small, stall_groups):
        # Every served group stalls 200 ms, letting the queue fill up.
        stall_groups(200.0)
        service = QueryService(
            tardis_small,
            queue_capacity=2,
            policy="shed",
            max_batch=1,
            max_delay_ms=0.0,
            result_cache_size=None,
        )
        server = TardisServer(service, port=0)
        server.start()
        try:
            host, port = server.address
            clients = [ServingClient(host, port) for _ in range(6)]
            try:
                import threading

                outcomes: list[str] = []
                lock = threading.Lock()

                def fire(client):
                    try:
                        client.knn(rw_small.values[0], k=3)
                        with lock:
                            outcomes.append("ok")
                    except OverloadedError:
                        with lock:
                            outcomes.append("overloaded")

                threads = [
                    threading.Thread(target=fire, args=(c,))
                    for c in clients
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(30.0)
                # With a 2-deep queue and a stalled worker, some of the 6
                # concurrent requests must shed — and shed requests raise
                # the structured client-side error, not a generic one.
                assert "overloaded" in outcomes
                assert service.stats()["requests_shed"] >= 1
            finally:
                for client in clients:
                    client.close()
        finally:
            server.close()


class TestStop:
    """The accept loop sleeps on its listening socket and a wake-up
    socket, not on a poll timer: a stop does not wait out a poll."""

    @pytest.mark.parametrize("how", ["close", "abort"])
    def test_stopping_an_idle_started_server_is_prompt(self, tardis_small, how):
        import time

        server = serve(tardis_small, port=0)
        server.start()
        host, port = server.address
        with ServingClient(host, port) as client:
            assert client.ping()
        time.sleep(0.05)  # idle: the loop is back asleep in select
        started = time.perf_counter()
        getattr(server, how)()
        assert time.perf_counter() - started < 0.05
        assert not server._thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1.0)

    def test_serve_forever_returns_when_closed_from_another_thread(
        self, tardis_small
    ):
        import threading
        import time

        server = serve(tardis_small, port=0)
        loop = threading.Thread(target=server.serve_forever, daemon=True)
        loop.start()
        host, port = server.address
        with ServingClient(host, port) as client:
            assert client.ping()
        started = time.perf_counter()
        server.close()
        loop.join(5.0)
        assert not loop.is_alive()
        assert time.perf_counter() - started < 0.05

    def test_close_before_the_loop_starts_does_not_hang(self, tardis_small):
        """A close that beats the loop to its start returns, and the
        loop, starting late, returns at once."""
        import threading

        server = serve(tardis_small, port=0)
        server.service.start()

        def close_then_loop():
            server.close()
            server._tcp.serve_forever()

        stopper = threading.Thread(target=close_then_loop, daemon=True)
        stopper.start()
        stopper.join(5.0)
        assert not stopper.is_alive()
