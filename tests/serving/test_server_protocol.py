"""Wire-protocol hygiene: version stamps, unknown fields, timeouts,
and graceful drain under in-flight load.

These pin the version-skew contract a mixed-version cluster (old
shards, new router — or vice versa) depends on: every reply carries
``proto``, every parser ignores fields it does not know, and a socket
timeout surfaces as its own typed error, distinct from a server-side
deadline.
"""

import json
import socket
import threading
import time

import pytest

from repro.serving import (
    QueryRequest,
    QueryService,
    ServingClient,
    TardisServer,
    serve,
)
from repro.serving.server import PROTO_VERSION, RequestTimeoutError


@pytest.fixture()
def running_server(tardis_small):
    server = serve(tardis_small, port=0, max_batch=4, max_delay_ms=1.0)
    server.start()
    yield server
    server.close()


def _raw_call(address, payload: bytes) -> dict:
    with socket.create_connection(address, timeout=10) as sock:
        handle = sock.makefile("rwb")
        handle.write(payload + b"\n")
        handle.flush()
        return json.loads(handle.readline())


class TestProtoStamp:
    def test_every_reply_kind_carries_proto(self, running_server, rw_small):
        address = running_server.address
        docs = [
            {"op": "ping"},
            {"op": "stats"},
            {"op": "knn", "series": rw_small.values[0].tolist(), "k": 3},
            {"op": "nonsense"},                      # error reply
            {"op": "knn"},                           # bad-request reply
        ]
        for doc in docs:
            reply = _raw_call(address, json.dumps(doc).encode())
            assert reply["proto"] == PROTO_VERSION, doc

    def test_malformed_json_reply_still_versioned(self, running_server):
        reply = _raw_call(running_server.address, b"{broken")
        assert reply["ok"] is False
        assert reply["proto"] == PROTO_VERSION


class TestUnknownFieldTolerance:
    def test_unknown_request_fields_are_ignored(self, running_server,
                                                rw_small):
        """A newer client sending fields this server has never heard of
        still gets its query answered — the forward-compat half of the
        version-skew contract."""
        reply = _raw_call(running_server.address, json.dumps({
            "op": "knn",
            "series": rw_small.values[0].tolist(),
            "k": 3,
            "from_the_future": {"nested": [1, 2, 3]},
            "priority": "urgent",
            "proto": 99,
        }).encode())
        assert reply["ok"] is True
        assert len(reply["result"]["record_ids"]) == 3

    def test_unknown_fields_ignored_on_every_op(self, running_server):
        for op in ("ping", "stats"):
            reply = _raw_call(running_server.address, json.dumps(
                {"op": op, "shiny": True}
            ).encode())
            assert reply["ok"] is True


class TestSocketTimeout:
    def test_silent_server_raises_typed_timeout(self):
        """A server that accepts but never replies must surface as
        RequestTimeoutError (with the budget attached), not a bare
        socket.timeout or a hang."""
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10.0)
        accepted = []

        def accept_and_stall():
            try:
                conn, _addr = listener.accept()
                accepted.append(conn)  # hold it open, never reply
            except OSError:
                pass

        thread = threading.Thread(target=accept_and_stall, daemon=True)
        thread.start()
        host, port = listener.getsockname()
        try:
            with ServingClient(host, port, timeout=0.2) as client:
                with pytest.raises(RequestTimeoutError) as excinfo:
                    client.ping()
            assert excinfo.value.timeout_s == 0.2
        finally:
            listener.close()
            for conn in accepted:
                conn.close()

    def test_wire_timeout_error_kind_maps_to_typed_error(self):
        """The sharded router reports an exhausted upstream budget as a
        ``timeout`` wire error; the client must rehydrate the same
        typed exception, keeping it distinct from ``deadline``."""
        listener = socket.create_server(("127.0.0.1", 0))

        def answer_with_timeout_error():
            conn, _addr = listener.accept()
            handle = conn.makefile("rwb")
            handle.readline()
            handle.write(json.dumps({
                "ok": False, "proto": PROTO_VERSION,
                "error": {"type": "timeout", "message": "shard call: "
                          "no reply within 1.5s", "timeout_s": 1.5},
            }).encode() + b"\n")
            handle.flush()
            conn.close()

        thread = threading.Thread(target=answer_with_timeout_error,
                                  daemon=True)
        thread.start()
        host, port = listener.getsockname()
        try:
            with ServingClient(host, port, timeout=5.0) as client:
                with pytest.raises(RequestTimeoutError) as excinfo:
                    client.ping()
            assert excinfo.value.timeout_s == 1.5
        finally:
            listener.close()


class TestDrainWithInFlightRequests:
    def test_close_drain_completes_backlog_then_refuses(
        self, tardis_small, rw_small, stall_groups
    ):
        """close(drain=True) with requests mid-queue: every accepted
        request completes with a real answer, and only afterwards do
        new connections get refused."""
        stall_groups(150.0)  # so requests stay in flight
        service = QueryService(
            tardis_small, max_batch=2, max_delay_ms=5.0,
            result_cache_size=None,
        )
        server = TardisServer(service, port=0)
        server.start()
        host, port = server.address
        results: list = []
        errors: list = []
        lock = threading.Lock()

        def fire(row: int):
            try:
                with ServingClient(host, port, timeout=30.0) as client:
                    got = client.knn(rw_small.values[row], k=3)
                with lock:
                    results.append(got)
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=fire, args=(row,)) for row in range(6)
        ]
        for t in threads:
            t.start()
        time.sleep(0.1)  # let requests reach the queue / a group
        server.close(drain=True)
        for t in threads:
            t.join(30.0)
        assert not errors
        assert len(results) == 6
        assert all(len(r["record_ids"]) == 3 for r in results)
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2.0)

    def test_abort_fails_fast_instead_of_draining(
        self, tardis_small, rw_small, stall_groups
    ):
        """abort() is the crash twin: live connections reset instead of
        waiting for answers."""
        stall_groups(300.0)
        service = QueryService(
            tardis_small, max_batch=2, max_delay_ms=5.0,
            result_cache_size=None,
        )
        server = TardisServer(service, port=0)
        server.start()
        host, port = server.address
        outcomes: list = []
        lock = threading.Lock()

        def fire(row: int):
            try:
                with ServingClient(host, port, timeout=10.0) as client:
                    client.knn(rw_small.values[row], k=3)
                with lock:
                    outcomes.append("ok")
            except (ConnectionError, OSError, RuntimeError):
                with lock:
                    outcomes.append("cut")

        threads = [
            threading.Thread(target=fire, args=(row,)) for row in range(4)
        ]
        for t in threads:
            t.start()
        time.sleep(0.1)
        server.abort()
        for t in threads:
            t.join(15.0)
        assert len(outcomes) == 4
        assert "cut" in outcomes
