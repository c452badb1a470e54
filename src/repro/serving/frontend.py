"""The request front-end: one lifecycle for every admitted request.

:class:`RequestFrontEnd` is the base of both
:class:`~repro.serving.service.QueryService` and
:class:`~repro.sharding.router.RouterService`, and owns everything that
happens to a request *around* its execution: the running check, the
trace root (``serve/*`` minted locally, ``shard/*`` joined to a router's
trace from a carrier), the result-cache probe, admission (queue-wait
span, deadline arithmetic, :class:`Ticket`, overload shed), the consumer
threads — each window is the first ticket plus whatever queued behind it
while the previous window ran, up to ``max_batch``; ``max_delay_s`` > 0
lingers for more, measured from that ticket's arrival — and their
deadline shed at dequeue, the single finish (root
ended *before* the future resolves, SLO tracker, slow-query log), the
common ``stats`` keys, ``recent_traces``, the drain-or-fail ``stop`` and
the wire parse of write documents.

A service supplies what happens in between: :meth:`_execute_window`
receives each dequeued window of live tickets and must :meth:`_finish`
every one of them.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

from ..telemetry.carrier import extract as extract_trace
from ..telemetry.journal import EventJournal, SlowQueryLog, get_journal
from ..telemetry.spans import NULL_SPAN, Span, get_tracer, trace_id_of
from .admission import AdmissionQueue, DeadlineExceededError, OverloadedError
from .requests import QueryRequest, WriteRequest, wire_series
from .result_cache import ResultCache
from .slo import SLOTracker

__all__ = ["RequestFrontEnd", "Ticket"]

logger = logging.getLogger(__name__)


@dataclass
class Ticket:
    """One in-flight request: the work, its future, its clock — and its
    trace.  The span handles ride the ticket across the admission queue
    and the batch loop so every pipeline stage can stitch its segment
    under the same root (no-op spans when tracing is off)."""

    request: QueryRequest | WriteRequest
    future: Future
    enqueued_at: float
    span: object = field(default=NULL_SPAN, repr=False)
    queue_span: object = field(default=NULL_SPAN, repr=False)
    wait_span: object = field(default=NULL_SPAN, repr=False)
    dequeued_at: float = 0.0
    exec_started_at: float = 0.0
    exec_finished_at: float = 0.0
    #: Monotonic instant the deadline budget runs out (None = no budget).
    deadline_at: float | None = None

    @property
    def trace_id(self):
        return trace_id_of(self.span)


class RequestFrontEnd:
    """Admission → deadline → finish around a service's execution."""

    #: Attributes stamped on every root span this service mints.
    root_attrs: dict = {}

    def __init__(
        self,
        index,
        *,
        queue_capacity: int,
        policy: str,
        consumers: int,
        max_batch: int,
        max_delay_s: float,
        result_cache_size: int | None,
        slow_query_threshold_ms: float,
        journal_sample: float,
        journal: EventJournal | None,
        default_deadline_ms: float | None,
    ):
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive")
        self.index = index
        self.default_deadline_s = (
            None if default_deadline_ms is None
            else default_deadline_ms / 1000.0
        )
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.queue = AdmissionQueue(queue_capacity, policy=policy)
        self.slo = SLOTracker()
        self.journal = journal if journal is not None else get_journal()
        self.slow_log = SlowQueryLog(
            threshold_s=slow_query_threshold_ms / 1000.0,
            sample_rate=journal_sample,
            journal=self.journal,
        )
        self.result_cache = (
            ResultCache(result_cache_size) if result_cache_size else None
        )
        #: Wire ops the hosting TardisServer dispatches straight to the
        #: service, in the connection handler thread.
        self.extra_ops = {
            "write": self._op_write,
            "write-batch": self._op_write,
        }
        self._consumers = consumers
        self._threads: list[threading.Thread] = []
        self._started = False
        self._stopped = False

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        if not self._started:
            self._started = True
            for i in range(self._consumers):
                thread = threading.Thread(
                    target=self._consume,
                    name=f"repro-{type(self).__name__}-{i}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        return self

    def stop(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Close admissions; drain (default) or abandon the backlog."""
        running = self._started and not self._stopped
        self._stopped = True
        if not running:
            return
        self.queue.close()
        if not drain:
            # Fail whatever is still queued instead of executing it.
            while leftovers := self.queue.take_batch(self.max_batch, 0.0):
                for ticket in leftovers:
                    ticket.future.set_exception(RuntimeError(
                        f"{type(self).__name__} stopped without draining"
                    ))
        for thread in self._threads:
            thread.join(timeout)
        logger.info("%s stopped (drained=%s)", type(self).__name__, drain)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop(drain=True)

    # -- admission ----------------------------------------------------------

    def submit(self, request: QueryRequest) -> Future:
        """Admit one query; the returned future resolves to a core query
        result (:class:`ExactMatchResult` / :class:`KnnResult`).

        Under the ``shed`` policy a full queue raises
        :class:`OverloadedError` here, synchronously.
        """
        self._check_running()
        self._check_length(len(request.series), "query")
        attrs = {"strategy": request.strategy} if request.op == "knn" else {}
        root = self._start_root("request", request.trace_ctx, op=request.op,
                                **attrs)
        if self.result_cache is not None:
            cached = self.result_cache.get(request.cache_key())
            if cached is not None:
                tracer = get_tracer()
                tracer.end_span(tracer.start_span("serve/cache", parent=root))
                root.set("cached", True)
                # End the root *before* resolving the future so waiters
                # (and the wire handler) see a finished trace.
                tracer.end_span(root)
                future = _future_for(root)
                future.set_result(cached)
                self.slo.record_completed(0.0, cached=True)
                self.slow_log.observe(
                    0.0, trace_id=trace_id_of(root), op=request.op,
                    cached=True,
                )
                return future
        return self._admit(request, root)

    def query(self, request: QueryRequest, timeout: float | None = None):
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(request).result(timeout)

    def parse_write(self, doc: dict) -> WriteRequest:
        """A ``write`` / ``write-batch`` wire document as a request; bytes
        are cut into rows of the index's series length."""
        length = self.index.series_length
        payload = wire_series(doc, "batch", length)
        if payload is None:
            payload = wire_series(doc, "series", length)
        if payload is None:
            raise ValueError(
                "write needs 'series_b64' / 'series' (one) or "
                "'batch_b64' / 'batch' (many)"
            )
        record_ids = doc.get("record_ids")
        if record_ids is None and "record_id" in doc:
            record_ids = [doc["record_id"]]
        return WriteRequest(
            batch=payload,
            record_ids=record_ids,
            deadline_ms=doc.get("deadline_ms"),
            trace_ctx=extract_trace(doc),
        )

    def _check_running(self) -> None:
        if not self._started or self._stopped:
            raise RuntimeError(
                f"{type(self).__name__} is not running (use start()/with)"
            )

    def _check_length(self, length: int, what: str) -> None:
        if length != self.index.series_length:
            raise ValueError(
                f"{what} length {length} != indexed length "
                f"{self.index.series_length}"
            )

    def _start_root(self, kind: str, ctx, local: str = "serve", **attrs):
        """Mint ``<local>/<kind>``, or — forwarded from a router — join
        the remote trace as ``shard/<kind>``.  A remote root's parent
        lives in the router process, so ``end_span`` does not collect it
        locally: it ships back in the reply for re-parenting (the
        shard-side half of the carrier; see telemetry.carrier)."""
        tracer = get_tracer()
        attrs.update(self.root_attrs)
        if ctx is None:
            return tracer.start_span(f"{local}/{kind}", **attrs)
        return tracer.start_remote_span(
            f"shard/{kind}", ctx.trace_id, ctx.parent_span_id, **attrs
        )

    def _deadline_at(self, request, now: float) -> float | None:
        """Monotonic instant the request's budget (or the service
        default) runs out, counted from ``now``."""
        if request.deadline_ms is not None:
            return now + request.deadline_ms / 1000.0
        if self.default_deadline_s is not None:
            return now + self.default_deadline_s
        return None

    def _admit(self, request, root) -> Future:
        future = _future_for(root)
        queue_span = get_tracer().start_span("serve/queue-wait", parent=root)
        enqueued_at = time.monotonic()
        ticket = Ticket(
            request, future, enqueued_at, span=root, queue_span=queue_span,
            deadline_at=self._deadline_at(request, enqueued_at),
        )
        try:
            self.queue.put(ticket)
        except OverloadedError:
            self._shed(ticket, "overloaded", "shed",
                       queue_depth=self.queue.depth)
            self.slo.record_shed()
            raise
        self.slo.record_admitted(self.queue.depth)
        return future

    def _shed(self, ticket: Ticket, error: str, kind: str, **fields) -> None:
        """Close the trace of a ticket that will never execute and
        journal why."""
        tracer = get_tracer()
        ticket.queue_span.set("error", error)
        tracer.end_span(ticket.queue_span)
        ticket.span.set("error", error)
        tracer.end_span(ticket.span)
        self.journal.record(
            kind, trace_id=ticket.trace_id, op=ticket.request.op, **fields
        )

    # -- consumption --------------------------------------------------------

    def _consume(self) -> None:
        while True:
            window = self.queue.take_batch(self.max_batch, self.max_delay_s)
            if not window:
                return  # queue closed and drained
            now = time.monotonic()
            # Queue wait is over.  Tickets whose deadline budget already
            # expired are shed here — cancelled without ever executing.
            live = [t for t in window if self._dequeue(t, now)]
            try:
                if live:
                    self._execute_window(live)
            except BaseException as exc:  # never kill a consumer
                logger.exception("%s window failed", type(self).__name__)
                for ticket in live:
                    if not ticket.future.done():
                        self._finish(ticket, error=exc)

    def _execute_window(self, window: list) -> None:
        raise NotImplementedError

    def _op_write(self, doc: dict) -> dict:
        raise NotImplementedError

    def _dequeue(self, ticket: Ticket, now: float) -> bool:
        ticket.dequeued_at = now
        if ticket.deadline_at is None or now < ticket.deadline_at:
            get_tracer().end_span(ticket.queue_span)
            return True
        waited_s = now - ticket.enqueued_at
        deadline_s = ticket.deadline_at - ticket.enqueued_at
        self._shed(
            ticket, "deadline", "deadline",
            waited_ms=waited_s * 1000.0, deadline_ms=deadline_s * 1000.0,
        )
        self.slo.record_deadline_shed()
        ticket.future.set_exception(
            DeadlineExceededError(waited_s, deadline_s)
        )
        return False

    def _finish(self, ticket: Ticket, result=None, error=None, **fields) -> None:
        """Close one ticket: end its trace, resolve its future, and feed
        the SLO tracker and slow-query log (``fields`` are the caller's
        extra slow-log columns).

        The root span ends *before* the future resolves so anything
        woken by the result — the wire handler embedding the trace, a
        done-callback — sees a complete timeline.
        """
        latency_s = time.monotonic() - ticket.enqueued_at
        degraded = bool(getattr(result, "degraded", False))
        root = ticket.span
        fields.update(
            trace_id=ticket.trace_id,
            op=ticket.request.op,
            queue_wait_s=max(0.0, ticket.dequeued_at - ticket.enqueued_at),
            execute_s=max(
                0.0, ticket.exec_finished_at - ticket.exec_started_at
            ),
        )
        if ticket.request.op == "knn":
            fields["strategy"] = ticket.request.strategy
        if error is not None:
            root.set("error", f"{type(error).__name__}: {error}")
            fields["error"] = repr(error)
        if degraded:
            root.set("degraded", True)
            fields["degraded"] = True
            fields["missing_partitions"] = list(result.missing_partitions)
        get_tracer().end_span(root)
        if error is not None:
            ticket.future.set_exception(error)
        else:
            ticket.future.set_result(result)
        self.slo.record_completed(
            latency_s, failed=error is not None, degraded=degraded
        )
        self.slow_log.observe(latency_s, **fields)

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """SLO report plus the cache, journal and admission snapshots."""
        report = self.slo.report(queue_depth=self.queue.depth)
        report["config"] = {
            "policy": self.queue.policy,
            "queue_capacity": self.queue.capacity,
            "default_deadline_ms": (
                None if self.default_deadline_s is None
                else self.default_deadline_s * 1000.0
            ),
        }
        if self.result_cache is not None:
            report["result_cache"] = self.result_cache.stats()
        report["journal"] = self.journal.stats()
        report["tracing"] = get_tracer().enabled
        return report

    def recent_traces(
        self, n: int = 10, trace_id: str | None = None
    ) -> list[dict]:
        """Recent finished request traces as ``repro.trace/v1`` span dicts.

        With ``trace_id`` given, exactly that trace (empty list when it
        fell out of the tracer's root ring or never existed).  Backs the
        ``trace`` wire op.
        """
        tracer = get_tracer()
        if trace_id:
            root = tracer.find_trace(trace_id)
            return [root.to_dict()] if root is not None else []
        roots = tracer.roots
        return [root.to_dict() for root in roots[-max(0, n):]] if n > 0 else []


def _future_for(root) -> Future:
    future: Future = Future()
    if isinstance(root, Span):
        future.trace_root = root
    return future
