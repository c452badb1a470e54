"""JSON-lines TCP front-end and client for the query service.

The wire protocol is one JSON object per line, both directions — easy
to drive from any language or from ``nc``:

request::

    {"op": "knn", "series_b64": "...", "strategy": "target-node", "k": 10}
    {"op": "exact-match", "series_b64": "...", "use_bloom": true}
    {"op": "write", "series_b64": "..."}
    {"op": "write-batch", "batch_b64": "...", "record_ids": [..]}
    {"op": "knn", "series": [0.12, -0.5, ...], "k": 10}
    {"op": "stats"}        {"op": "ping"}
    {"op": "trace", "n": 5}          {"op": "trace", "trace_id": "..."}
    {"op": "journal", "n": 50}       {"op": "journal", "kind": "slow-query"}

response::

    {"ok": true, "result": {...}}
    {"ok": false, "error": {"type": "overloaded", "message": ...,
                            "queue_depth": N, "capacity": N}}

A series travels as ``series_b64``: base64 of its little-endian
float64 bytes, so it arrives bit-exact with no float printed or parsed.
A write batch is ``batch_b64``, its rows back to back (the row count is
the byte length / (8 × the index's series length)).  The JSON-numbers
spelling (``series`` / ``batch``) stays accepted; a document carrying
both spellings of one field is a ``bad-request``
(:func:`~repro.serving.requests.wire_series`).

A query document carrying ``"trace": true`` additionally returns the
request's finished span tree in the envelope's ``trace`` field (requires
tracing enabled on the server, e.g. ``repro serve`` default) — the
``repro query-remote --trace`` timeline.  ``trace`` / ``journal`` ops
expose the server's recent request traces and event-journal tail for
``repro top`` and post-hoc debugging.

Error types: ``overloaded`` (shed by admission control — back off and
retry), ``bad-request`` (malformed JSON or series bytes / invalid plan),
``deadline``, ``partial-result``, ``timeout`` (an upstream hop timed out
— returned by the sharded router when a shard call exceeds its budget;
the client also raises :class:`RequestTimeoutError` locally on a socket
timeout), ``internal``.  Series arrive as their float64 bits and reply
distances survive the JSON round trip exactly (``repr`` semantics), so
a remote kNN answer is bit-identical to the local one.

Version skew: every reply carries ``"proto": PROTO_VERSION`` and every
request parser ignores unknown fields, so a newer router can talk to an
older shard (and vice versa) as long as the fields it relies on exist.
Version 2 sends series as bytes, which a version-1 server cannot read.

:class:`TardisServer` wraps a ``ThreadingTCPServer`` around a running
:class:`~repro.serving.service.QueryService`; each connection gets a
handler thread that simply blocks on the service future — concurrency
and backpressure live in the service, not the socket layer.
"""

from __future__ import annotations

import json
import logging
import selectors
import socket
import socketserver
import threading

from ..faults.errors import PartialResultError
from ..faults.injector import get_injector
from ..telemetry.carrier import extract, reply_trace
from .admission import DeadlineExceededError, OverloadedError
from .requests import (
    QueryRequest,
    encode_series,
    result_to_wire,
    wire_series,
)
from .service import QueryService

__all__ = [
    "TardisServer",
    "ServingClient",
    "RequestTimeoutError",
    "unwrap_reply",
    "serve",
    "PROTO_VERSION",
]

logger = logging.getLogger(__name__)

#: Cap on one request line (16 MB) — a malformed client cannot OOM the
#: server by streaming an unterminated line.
MAX_LINE_BYTES = 16 * 1024 * 1024

#: Wire-protocol version, stamped into every reply envelope.  Bump on
#: incompatible changes; additive fields do NOT bump it (both sides
#: ignore unknown fields).
PROTO_VERSION = 2


class RequestTimeoutError(RuntimeError):
    """A request timed out on the wire.

    Raised client-side when the socket times out waiting for a reply
    (after which the stream may be desynchronized — close and reconnect
    before reusing the connection), and for server replies of wire-error
    kind ``timeout`` (e.g. the sharded router reporting that a shard
    call exceeded its budget).
    """

    def __init__(self, message: str, timeout_s: float | None = None):
        super().__init__(message)
        self.timeout_s = timeout_s


def _error(kind: str, message: str, **extra) -> dict:
    return {"ok": False, "error": {"type": kind, "message": message, **extra}}


def _error_envelope(exc: Exception, op) -> dict:
    """The typed serving error → wire envelope mapping (every op)."""
    if isinstance(exc, OverloadedError):
        # Writes ride the admission queue too; shed writes get the same
        # typed envelope as shed queries.
        return _error(
            "overloaded", str(exc),
            queue_depth=exc.depth, capacity=exc.capacity,
        )
    if isinstance(exc, DeadlineExceededError):
        return _error(
            "deadline", str(exc),
            waited_ms=exc.waited_s * 1000.0,
            deadline_ms=exc.deadline_s * 1000.0,
        )
    if isinstance(exc, PartialResultError):
        return _error(
            "partial-result", str(exc),
            missing_partitions=list(exc.missing_partitions),
        )
    if isinstance(exc, RequestTimeoutError):
        # An upstream hop (router → shard) timed out with no usable
        # fallback: distinct from "deadline" (this request's own budget)
        # so clients can tell the two apart.
        return _error("timeout", str(exc), timeout_s=exc.timeout_s)
    if isinstance(exc, (ValueError, TypeError)):
        # Validation failures (wrong length, bad plan, malformed
        # fields) are the client's fault.  RuntimeError is NOT: the
        # service raises it for server-side conditions ("not running",
        # batch-loop failures set on futures), which must surface as
        # "internal", not "bad-request".
        return _error("bad-request", str(exc))
    logger.error("internal error in op %r", op, exc_info=exc)
    return _error("internal", f"{type(exc).__name__}: {exc}")


def unwrap_reply(envelope: dict):
    """Reply envelope → result payload, or raise the typed error it
    carries (the inverse of :func:`_error_envelope`)."""
    if envelope.get("ok"):
        return envelope["result"]
    error = envelope.get("error") or {}
    kind = error.get("type", "unknown")
    if kind == "overloaded":
        raise OverloadedError(
            error.get("queue_depth", 0), error.get("capacity", 0)
        )
    if kind == "deadline":
        raise DeadlineExceededError(
            error.get("waited_ms", 0.0) / 1000.0,
            error.get("deadline_ms", 0.0) / 1000.0,
        )
    if kind == "partial-result":
        raise PartialResultError(
            error.get("missing_partitions", []),
            detail=error.get("message", ""),
        )
    if kind == "timeout":
        raise RequestTimeoutError(
            error.get("message", "upstream timeout"),
            timeout_s=error.get("timeout_s"),
        )
    raise RuntimeError(f"{kind}: {error.get('message', '')}")


def _parse_request(doc: dict) -> QueryRequest:
    """Build a :class:`QueryRequest` from a wire document.

    Only known fields are read; unknown fields are ignored (forward
    compatibility across router/shard version skew).
    """
    series = wire_series(doc, "series")
    if series is None:
        raise ValueError("a query needs 'series_b64' or 'series'")
    return QueryRequest(
        series=series,
        op=doc.get("op", "knn"),
        strategy=doc.get("strategy", "target-node"),
        k=int(doc.get("k", 10)),
        pth=doc.get("pth"),
        use_bloom=bool(doc.get("use_bloom", True)),
        deadline_ms=doc.get("deadline_ms"),
        trace_ctx=extract(doc),
    )


def _telemetry_payload(service: QueryService, doc: dict) -> dict:
    """Answer the ``telemetry`` wire op: journal drain + metrics.

    The router's federation scraper calls this periodically.  The
    journal ships incrementally (``since_seq`` is the caller's
    watermark; only newer events return) and the metrics registry ships
    as its full :meth:`MetricsRegistry.to_wire` state (the scraper diffs
    against its previous scrape).
    """
    from ..telemetry.metrics import get_registry

    since = int(doc.get("since_seq", 0) or 0)
    events = [e for e in service.journal.snapshot() if e["seq"] > since]
    return {
        "shard_id": getattr(service, "shard_id", None),
        "journal": {
            "events": events,
            "stats": service.journal.stats(),
        },
        "metrics": get_registry().to_wire(),
    }


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read JSON lines, answer JSON lines."""

    def handle(self) -> None:  # pragma: no cover - exercised via client
        service: QueryService = self.server.service  # type: ignore[attr-defined]
        while True:
            try:
                line = self.rfile.readline(MAX_LINE_BYTES)
            except OSError:
                return
            if not line:
                return
            if len(line) >= MAX_LINE_BYTES and not line.endswith(b"\n"):
                # readline() returned a full cap's worth with no
                # terminator: the request is oversized and the rest of
                # the stream is mid-line garbage.  Reject and close
                # rather than parsing the tail as phantom requests.
                self._reply(_error(
                    "bad-request",
                    f"request line exceeds {MAX_LINE_BYTES} bytes",
                ))
                return
            line = line.strip()
            if not line:
                continue
            reply = self._answer(service, line)
            injector = get_injector()
            if injector is not None and injector.drop_reply(line):
                # Injected socket drop: the work was done but the reply
                # is lost mid-response — cut the connection so the client
                # sees exactly what a died server looks like.
                return
            self._reply(reply)

    def _answer(self, service: QueryService, line: bytes) -> dict:
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            return _error("bad-request", f"invalid JSON: {exc}")
        if not isinstance(doc, dict):
            return _error("bad-request", "request must be a JSON object")
        op = doc.get("op")
        if op == "ping":
            return {"ok": True, "result": "pong"}
        if op == "stats":
            return {"ok": True, "result": service.stats()}
        if op == "trace":
            from ..telemetry.spans import get_tracer

            return {"ok": True, "result": {
                "enabled": get_tracer().enabled,
                "traces": service.recent_traces(
                    n=int(doc.get("n", 10)),
                    trace_id=doc.get("trace_id"),
                ),
            }}
        if op == "journal":
            return {"ok": True, "result": {
                "records": service.journal.tail(
                    n=int(doc.get("n", 50)), kind=doc.get("kind")
                ),
                "stats": service.journal.stats(),
            }}
        extra_ops = getattr(service, "extra_ops", None)
        try:
            if op == "telemetry":
                return {"ok": True, "result": _telemetry_payload(service, doc)}
            if extra_ops and op in extra_ops:
                # Service-specific ops (e.g. a shard's "shard-knn"
                # scatter target) run in the handler thread: admission
                # control and caching for these live at the caller (the
                # router).
                return {"ok": True, "result": extra_ops[op](doc)}
            request = _parse_request(doc)
            future = service.submit(request)
            result = future.result()
        except Exception as exc:
            return _error_envelope(exc, op)
        envelope = {"ok": True, "result": result_to_wire(result)}
        if doc.get("trace"):
            # The service ends the root span before resolving the future,
            # so the tree is complete here.
            envelope["trace"] = reply_trace(
                getattr(future, "trace_root", None), doc, request.trace_ctx
            )
        return envelope

    def _reply(self, doc: dict) -> None:
        doc.setdefault("proto", PROTO_VERSION)
        try:
            self.wfile.write(json.dumps(doc).encode() + b"\n")
            self.wfile.flush()
        except OSError:  # client went away mid-reply
            pass


class _TCPServer(socketserver.ThreadingTCPServer):
    """A threading TCP server that runs its own accept loop.

    The loop selects on the listening socket and on one end of a socket
    pair, with no timeout; :meth:`shutdown` writes to the other end.  An
    idle server therefore makes no timed wake-ups, and a stop returns as
    soon as the loop sees the byte instead of at its next poll (the
    stdlib loop polls every 0.5 s).
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._stopping = False
        #: Clear while :meth:`serve_forever` runs.
        self._stopped = threading.Event()
        self._stopped.set()

    def serve_forever(self) -> None:
        """Accept connections until :meth:`shutdown`; after one, return
        at once (a server stops for good)."""
        self._stopped.clear()
        try:
            if self._stopping:
                return
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_reader, selectors.EVENT_READ)
                while not self._stopping:
                    ready = selector.select()
                    if self._stopping:
                        break
                    if any(key.fileobj is self for key, _events in ready):
                        self._handle_request_noblock()
        finally:
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned (at
        once if it is not running)."""
        self._stopping = True
        try:
            self._wake_writer.send(b"\0")
        except OSError:  # closed already: nothing is selecting on it
            pass
        self._stopped.wait()

    def server_close(self) -> None:
        super().server_close()
        self._wake_reader.close()
        self._wake_writer.close()

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def abort_connections(self) -> None:
        """Cut every live connection mid-stream (crash simulation)."""
        with self._connections_lock:
            connections = list(self._connections)
        for sock in connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class TardisServer:
    """A query service bound to a TCP address, serving JSON lines."""

    def __init__(
        self, service: QueryService, host: str = "127.0.0.1", port: int = 0
    ):
        self.service = service
        self._tcp = _TCPServer((host, port), _Handler)
        self._tcp.service = service  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """Actual (host, port) — resolves ``port=0`` to the bound port."""
        return self._tcp.server_address[:2]

    def start(self) -> "TardisServer":
        self.service.start()
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            name="repro-serving-tcp",
            daemon=True,
        )
        self._thread.start()
        logger.info("listening on %s:%d", *self.address)
        return self

    def serve_forever(self) -> None:
        """Blocking variant (used by ``python -m repro serve``)."""
        self.service.start()
        logger.info("listening on %s:%d", *self.address)
        self._tcp.serve_forever()

    def close(self, drain: bool = True) -> None:
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
        self.service.stop(drain=drain)

    def abort(self) -> None:
        """Ungraceful stop: what a crashed server looks like to clients.

        New connections are refused, live connections are reset
        mid-stream, and queued work is failed instead of drained —
        the failover drills in :mod:`repro.sharding.cluster` use this
        so threads-mode shard death exercises the same
        connection-error path a SIGKILLed process produces.
        """
        self._tcp.shutdown()
        self._tcp.abort_connections()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
        self.service.stop(drain=False)

    def __enter__(self) -> "TardisServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


def serve(
    index, host: str = "127.0.0.1", port: int = 0, **service_kwargs
) -> TardisServer:
    """Convenience: wrap ``index`` in a service and bind a server to it."""
    return TardisServer(QueryService(index, **service_kwargs), host, port)


class ServingClient:
    """Line-oriented client for :class:`TardisServer`.

    One socket, synchronous request/response.  For concurrent load use
    one client per worker (``tools/load.py`` does).
    """

    def __init__(self, host: str, port: int, timeout: float | None = 30.0):
        self.timeout = timeout
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        #: Span tree from the last ``trace=True`` query (None otherwise).
        self.last_trace: dict | None = None

    def call(self, doc: dict) -> dict:
        """Send one request object; returns the raw response envelope.

        Raises :class:`RequestTimeoutError` when the socket times out —
        after which the stream may hold a late reply, so close and
        reconnect before reusing this client.
        """
        try:
            self._file.write(json.dumps(doc).encode() + b"\n")
            self._file.flush()
            line = self._file.readline(MAX_LINE_BYTES)
        except socket.timeout as exc:
            raise RequestTimeoutError(
                f"no reply within {self.timeout}s for op "
                f"{doc.get('op', '?')!r}",
                timeout_s=self.timeout,
            ) from exc
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def _result(self, doc: dict) -> dict:
        response = self.call(doc)
        result = unwrap_reply(response)
        self.last_trace = response.get("trace")
        return result

    def ping(self) -> bool:
        return self._result({"op": "ping"}) == "pong"

    def stats(self) -> dict:
        return self._result({"op": "stats"})

    def traces(self, n: int = 10, trace_id: str | None = None) -> dict:
        doc: dict = {"op": "trace", "n": n}
        if trace_id:
            doc["trace_id"] = trace_id
        return self._result(doc)

    def journal(self, n: int = 50, kind: str | None = None) -> dict:
        doc: dict = {"op": "journal", "n": n}
        if kind:
            doc["kind"] = kind
        return self._result(doc)

    def telemetry(self, since_seq: int = 0) -> dict:
        """Drain the server's observability state (federation scrape).

        Returns journal events newer than ``since_seq`` and the full
        metrics registry in wire form — see ``_telemetry_payload``.
        """
        return self._result({"op": "telemetry", "since_seq": since_seq})

    def exact_match(
        self, series, use_bloom: bool = True, trace: bool = False,
        deadline_ms: float | None = None,
    ) -> dict:
        doc = {
            "op": "exact-match",
            "series_b64": encode_series(series),
            "use_bloom": use_bloom,
            "trace": trace,
        }
        if deadline_ms is not None:
            doc["deadline_ms"] = deadline_ms
        return self._result(doc)

    def knn(
        self,
        series,
        k: int = 10,
        strategy: str = "target-node",
        pth: int | None = None,
        trace: bool = False,
        deadline_ms: float | None = None,
    ) -> dict:
        doc = {
            "op": "knn",
            "series_b64": encode_series(series),
            "strategy": strategy,
            "k": k,
            "pth": pth,
            "trace": trace,
        }
        if deadline_ms is not None:
            doc["deadline_ms"] = deadline_ms
        return self._result(doc)

    def write(
        self, series, record_id: int | None = None,
        deadline_ms: float | None = None,
    ) -> dict:
        """Append one series; returns the write acknowledgement."""
        doc: dict = {
            "op": "write",
            "series_b64": encode_series(series),
        }
        if record_id is not None:
            doc["record_id"] = int(record_id)
        if deadline_ms is not None:
            doc["deadline_ms"] = deadline_ms
        return self._result(doc)

    def write_batch(
        self, batch, record_ids=None, deadline_ms: float | None = None,
    ) -> dict:
        """Append a ``(n, length)`` batch; returns the acknowledgement."""
        doc: dict = {
            "op": "write-batch",
            "batch_b64": encode_series(batch),
        }
        if record_ids is not None:
            doc["record_ids"] = [int(r) for r in record_ids]
        if deadline_ms is not None:
            doc["deadline_ms"] = deadline_ms
        return self._result(doc)

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass  # the server is gone; a request it never read goes too
        finally:
            self._sock.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
