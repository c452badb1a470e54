"""The scatter/gather router: all of serving's brains, none of its data.

:class:`RouterService` shares
:class:`~repro.serving.service.QueryService`'s
:class:`~repro.serving.frontend.RequestFrontEnd` (``submit`` → future,
``stats``, ``recent_traces``, ``start``/``stop``) so
:class:`~repro.serving.server.TardisServer` hosts it unchanged — but
instead of executing queries it *places* them:

* **exact-match / target-node / one-partition kNN** route to the home
  partition's least-loaded live replica and are forwarded whole: the
  shard runs the single-process code path over its subset index, so the
  answer is bit-identical by construction.
* **multi-partitions kNN** runs as scatter/gather.  The router applies
  the paper's ``pth`` fan-out cap by MINDIST-ranking candidate
  partitions (:func:`repro.core.queries.select_mpa_partitions` over the
  region synopses), sends one *seed* call to the home partition's shard
  (threshold from the home target node, Alg. 1 lines 10-14), scatters
  the threshold to the remaining hosts in parallel, and hands the
  returned per-shard top-k lists to
  :func:`~repro.core.queries.merge_top_k`.

Failure handling (docs/ROBUSTNESS.md): every shard call — forward,
seed, scatter and write leg — goes through one failover loop
(:meth:`RouterService._failover`) that retries across replicas under
the active :class:`~repro.faults.plan.RetryPolicy` and the request's
deadline budget; calls are faultable via the injector's ``shard/<op>``
sites.  A partition whose every host is exhausted degrades kNN exactly
like a missing partition in single-process serving — ``degraded=true``
+ ``missing_partitions`` with the answer a provably-correct prefix
(region-synopsis bound), never cached — and turns exact-match into a
typed ``partial-result``.  Shard health is tracked by ping
(``serving_shard_*`` metrics) and used for replica choice.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ..core.builder import convert_batch
from ..core.queries import (
    KnnResult,
    Neighbor,
    merge_top_k,
    query_signature,
    select_mpa_partitions,
    sibling_bound_lookup,
)
from ..faults.errors import PartialResultError
from ..faults.injector import get_injector
from ..faults.plan import RetryPolicy
from ..serving.admission import DeadlineExceededError
from ..serving.frontend import RequestFrontEnd, Ticket
from ..serving.requests import QueryRequest, WriteResult, wire_to_result
from ..serving.server import (
    RequestTimeoutError,
    ServingClient,
    unwrap_reply,
)
from ..telemetry.carrier import inject, spans_from_compact
from ..telemetry.journal import EventJournal, write_merged_journal
from ..telemetry.metrics import get_registry
from ..telemetry.spans import Span, get_tracer, span_from_dict, trace_id_of
from .assignment import ShardPlan
from .federation import ClusterTelemetry
from .synopsis import RouterIndex

__all__ = ["RouterService", "ShardUnavailableError"]

logger = logging.getLogger(__name__)


class ShardUnavailableError(RuntimeError):
    """Every replica of a partition's host set is unreachable."""

    def __init__(self, partition_id: int, tried):
        super().__init__(
            f"no live replica for partition {partition_id} "
            f"(tried shards {sorted(set(tried))})"
        )
        self.partition_id = partition_id
        self.tried = sorted(set(tried))


def _with_budget(doc: dict):
    """The ``doc_for`` of a forward or a write leg: the same document to
    every host, stamped with the request's remaining budget."""

    def doc_for(_host, _pids, budget_ms):
        if budget_ms is None:
            return doc
        return dict(doc, deadline_ms=budget_ms)

    return doc_for


class _ShardCallError(RuntimeError):
    """One shard call failed (connection, timeout, injected crash)."""


class _ShardState:
    """Mutable per-shard health + load bookkeeping (lock-protected)."""

    __slots__ = ("shard_id", "address", "up", "in_flight", "requests",
                 "failures", "last_error")

    def __init__(self, shard_id: int, address):
        self.shard_id = shard_id
        self.address = tuple(address)
        self.up = True
        self.in_flight = 0
        self.requests = 0
        self.failures = 0
        self.last_error: str | None = None

    def snapshot(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "address": list(self.address),
            "up": self.up,
            "in_flight": self.in_flight,
            "requests": self.requests,
            "failures": self.failures,
            "last_error": self.last_error,
        }


class RouterService(RequestFrontEnd):
    """Scatter/gather front-end over a :class:`ShardCluster`'s servers."""

    root_attrs = {"router": True}

    def __init__(
        self,
        index: RouterIndex,
        plan: ShardPlan,
        addresses,
        *,
        queue_capacity: int = 256,
        policy: str = "block",
        workers: int = 8,
        result_cache_size: int | None = 1024,
        slow_query_threshold_ms: float = 100.0,
        journal_sample: float = 0.0,
        journal: EventJournal | None = None,
        default_deadline_ms: float | None = None,
        call_timeout_s: float = 30.0,
        health_interval_s: float = 1.0,
        trace_sample: float = 1.0,
        scrape_interval_s: float = 0.0,
    ):
        if len(addresses) != plan.n_shards:
            raise ValueError(
                f"{len(addresses)} addresses for {plan.n_shards} shards"
            )
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if not 0.0 <= trace_sample <= 1.0:
            raise ValueError("trace_sample must be within [0, 1]")
        # Each worker serves one ticket at a time: no batch window.
        super().__init__(
            index,
            queue_capacity=queue_capacity,
            policy=policy,
            consumers=workers,
            max_batch=1,
            max_delay_s=0.0,
            result_cache_size=result_cache_size,
            slow_query_threshold_ms=slow_query_threshold_ms,
            journal_sample=journal_sample,
            journal=journal,
            default_deadline_ms=default_deadline_ms,
        )
        self.plan = plan
        self.call_timeout_s = call_timeout_s
        self.health_interval_s = health_interval_s
        self.workers = workers
        #: Fraction of traces whose shard span summaries ship back in
        #: replies (deterministic in the trace id; see telemetry.carrier).
        self.trace_sample = trace_sample
        self.scrape_interval_s = scrape_interval_s
        self._shards = {
            shard_id: _ShardState(shard_id, address)
            for shard_id, address in enumerate(addresses)
        }
        self._state_lock = threading.Lock()
        self._local = threading.local()
        self._fanout = ThreadPoolExecutor(
            max_workers=max(4, 2 * plan.n_shards),
            thread_name_prefix="repro-router-fanout",
        )
        self._health_stop = threading.Event()
        self._health_thread: threading.Thread | None = None
        self.telemetry = ClusterTelemetry(
            self._telemetry_fetch, list(self._shards)
        )
        self._scrape_stop = threading.Event()
        self._scrape_thread: threading.Thread | None = None
        # -- streaming ingest -----------------------------------------------
        # The router assigns record ids (replicas of a partition must
        # agree on them) from a counter seeded past the build-time id
        # range; pinned ids on shards lift their local floors.
        self._write_lock = threading.Lock()
        self._write_counter = self.index.n_records
        self._writes_total = 0
        self._write_records_total = 0
        self._writes_failed = 0
        self._write_replica_failures = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "RouterService":
        if self._started:
            return self
        super().start()
        if self.health_interval_s > 0:
            self._health_thread = threading.Thread(
                target=self._health_loop,
                name="repro-router-health",
                daemon=True,
            )
            self._health_thread.start()
        if self.scrape_interval_s > 0:
            self._scrape_thread = threading.Thread(
                target=self._scrape_loop,
                name="repro-router-scrape",
                daemon=True,
            )
            self._scrape_thread.start()
        logger.info(
            "router started: %d shards, R=%d, %d workers, policy=%s",
            self.plan.n_shards, self.plan.replication, self.workers,
            self.queue.policy,
        )
        return self

    def stop(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        self._health_stop.set()
        self._scrape_stop.set()
        super().stop(drain, timeout)
        if self._health_thread is not None:
            self._health_thread.join(2.0)
        if self._scrape_thread is not None:
            self._scrape_thread.join(2.0)
        self._fanout.shutdown(wait=False)

    # -- request path -------------------------------------------------------

    def _execute_window(self, window: list) -> None:
        for ticket in window:
            self._serve_ticket(ticket)

    def _serve_ticket(self, ticket: Ticket) -> None:
        tracer = get_tracer()
        exec_span = tracer.start_span("route/execute", parent=ticket.span)
        ticket.exec_started_at = ticket.dequeued_at
        request = ticket.request
        result = error = None
        try:
            if request.op == "knn" and request.strategy == "multi-partitions":
                result = self._execute_mpa(request, exec_span, ticket.deadline_at)
            else:
                result = self._execute_forward(
                    request, exec_span, ticket.deadline_at
                )
        except BaseException as exc:
            error = exc
        tracer.end_span(exec_span)
        ticket.exec_finished_at = time.monotonic()
        if getattr(result, "degraded", False):
            # Never cached (transient unavailability is not the index's
            # truth) — same rule as single-process.
            get_registry().counter(
                "serving_shard_degraded_total",
                "Router answers degraded by unreachable shards/partitions",
            ).inc()
        elif self.result_cache is not None and error is None:
            pids = result.partition_ids_loaded
            if not pids:  # Bloom-rejected: index under the home partition
                signature, _paa = query_signature(self.index, request.series)
                pids = (self.index.global_index.route(signature),)
            self.result_cache.put(request.cache_key(), result, pids)
        self._finish(ticket, result, error)

    # -- shard calls --------------------------------------------------------

    def _client(self, shard_id: int) -> ServingClient:
        clients = getattr(self._local, "clients", None)
        if clients is None:
            clients = self._local.clients = {}
        client = clients.get(shard_id)
        if client is None:
            host, port = self._shards[shard_id].address
            client = ServingClient(host, port, timeout=self.call_timeout_s)
            clients[shard_id] = client
        return client

    def _drop_client(self, shard_id: int) -> None:
        clients = getattr(self._local, "clients", None)
        if clients is None:
            return
        client = clients.pop(shard_id, None)
        if client is not None:
            try:
                client.close()
            except OSError:
                pass

    def _mark(self, shard_id: int, ok: bool, error: str | None = None) -> None:
        state = self._shards[shard_id]
        registry = get_registry()
        with self._state_lock:
            state.requests += 1
            if ok:
                was_down = not state.up
                state.up = True
                state.last_error = None
            else:
                state.up = False
                state.failures += 1
                state.last_error = error
        registry.counter(
            "serving_shard_requests_total", "Router→shard calls attempted"
        ).inc()
        if not ok:
            registry.counter(
                "serving_shard_failures_total", "Router→shard calls failed"
            ).inc()
        registry.gauge(
            f"serving_shard_{shard_id}_up",
            f"1 when shard {shard_id} answered its last call/ping",
        ).set(1.0 if ok else 0.0)

    def _call_once(self, shard_id: int, op: str, doc: dict, attempt: int) -> dict:
        """One physical call attempt; returns the raw reply envelope.

        Raises :class:`_ShardCallError` on connection/timeout failure
        (real or injected) — callers decide whether a replica retry is
        possible.
        """
        injector = get_injector()
        if injector is not None:
            seq = injector.next_seq("shard", shard_id, op)
            fault = injector.shard_fault(shard_id, op, seq, attempt)
            if fault is not None:
                if fault.kind == "task-slow":
                    time.sleep(fault.delay_ms / 1000.0)
                else:
                    self._mark(shard_id, False, "injected shard crash")
                    raise _ShardCallError(
                        f"injected: shard {shard_id} unreachable"
                    )
        state = self._shards[shard_id]
        with self._state_lock:
            state.in_flight += 1
        try:
            envelope = self._client(shard_id).call(doc)
        except (RequestTimeoutError, ConnectionError, OSError,
                json.JSONDecodeError) as exc:
            self._drop_client(shard_id)
            self._mark(shard_id, False, f"{type(exc).__name__}: {exc}")
            raise _ShardCallError(
                f"shard {shard_id} ({op}): {type(exc).__name__}: {exc}"
            ) from exc
        finally:
            with self._state_lock:
                state.in_flight -= 1
        self._mark(shard_id, True)
        return envelope

    def _pick_host(
        self, partition_id: int, excluded, hosts=None
    ) -> int | None:
        """Least-loaded live host of a partition, honoring exclusions.

        ``hosts`` defaults to the partition's replica chain.  Live
        shards win over down ones; among live hosts the one with the
        fewest in-flight calls (ties: chain order).  With every live
        host excluded, a down host is still returned — it may have
        recovered and a failed retry costs one timeout.
        """
        if hosts is None:
            hosts = self.plan.hosts_of(partition_id)
        usable = [s for s in hosts if s not in excluded]
        if not usable:
            return None
        with self._state_lock:
            live = [s for s in usable if self._shards[s].up]
            pool = live or usable
            return min(
                pool,
                key=lambda s: (self._shards[s].in_flight, hosts.index(s)),
            )

    def _pick_retry_host(
        self, partition_id: int, call_failed: set, load_failed: set,
        revisited: set, given_up: set, hosts=None,
    ) -> int | None:
        """:meth:`_pick_host` under the two-tier retry exclusion.

        A failed *call* (dead or slow shard) may recover, so the first
        time every host is excluded the call failures are forgotten and
        the host set revisited, once per pid (``revisited``).  A host
        that fails again after that revisit is ``given_up`` for the rest
        of the request.  A failed *load* already burned the shard's
        in-process retry budget and excludes that host for good.
        ``None`` means the partition is lost on every host.
        """
        out = load_failed | given_up
        host = self._pick_host(partition_id, call_failed | out, hosts)
        if host is None and call_failed and partition_id not in revisited:
            revisited.add(partition_id)
            call_failed.clear()
            host = self._pick_host(partition_id, out, hosts)
        return host

    def _check_deadline(self, deadline_at: float | None) -> float | None:
        """Remaining seconds in the budget; raises when it ran out."""
        if deadline_at is None:
            return None
        remaining = deadline_at - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceededError(0.0, 0.0)
        return remaining

    def _retry_pause(
        self, injector, retry: RetryPolicy, attempt: int,
        deadline_at: float | None, *site,
    ) -> None:
        """Count one router re-call and sleep its backoff, cut to the
        request's budget (raises when the budget is already spent).

        Under a fault plan the pause carries the plan's deterministic
        jitter and the retry also counts as a fault recovery.
        """
        get_registry().counter(
            "serving_shard_retries_total",
            "Router replica-failover retry attempts",
        ).inc()
        if injector is not None:
            injector.count_retry()
            pause = injector.backoff_s(attempt, *site)
        else:
            pause = retry.backoff_s(attempt)
        remaining = self._check_deadline(deadline_at)
        if remaining is not None:
            pause = min(pause, max(0.0, remaining - 0.001))
        if pause > 0:
            time.sleep(pause)

    def _shard_call(
        self, shard_id: int, doc: dict, parent_span, attempt: int,
        partition_ids,
    ) -> tuple:
        """One traced call to one shard: ``(reply, error, lost)``.

        Opens the ``route/shard-call`` span, injects the trace carrier,
        unwraps the reply envelope and stitches the shard's span summary
        under the call span.  ``error`` is what the call raised —
        transport, injected, or a typed error the shard answered with —
        and ``lost`` the partitions the shard could not load: a
        ``partial-result``'s, or those its reply lists in ``missing``
        (shard-knn) or ``missing_partitions`` (a degraded forwarded
        kNN).  Either is journaled as a ``failover``; what happens next
        is :meth:`_failover`'s rule.
        """
        op = doc["op"]
        tracer = get_tracer()
        call_span = tracer.start_span(
            "route/shard-call", parent=parent_span, shard_id=shard_id,
            op=op, attempt=attempt, n_partitions=len(partition_ids),
        )
        if attempt > 1:
            # A re-route after a failed replica: tag the span so the
            # waterfall shows the failover leg explicitly.
            call_span.set("failover", True)
        carrier = inject(call_span)
        if carrier is not None:
            doc = dict(doc, ctx=carrier, trace_sample=self.trace_sample)
        reply = error = None
        try:
            envelope = self._call_once(shard_id, op, doc, attempt)
            reply = unwrap_reply(envelope)
        except RuntimeError as exc:
            error = exc
        if error is None:
            # Forwarded ops return the shard's trace beside the result,
            # extra ops (shard-knn) inside it.
            self._adopt_trace(
                envelope.get("trace") or reply.get("trace"), call_span
            )
            lost = sorted(
                set(reply.get("missing", ()))
                | set(reply.get("missing_partitions", ()))
            )
            reason, failed = "load-failed", lost
        else:
            lost = (
                error.missing_partitions
                if isinstance(error, PartialResultError) else []
            )
            reason, failed = f"{type(error).__name__}: {error}", partition_ids
            call_span.set("error", reason)
        if error is not None or lost:
            self._journal_failover(
                shard_id, op, reason, attempt, partition_ids=failed,
                trace_id=trace_id_of(parent_span),
            )
        tracer.end_span(call_span)
        return reply, error, lost

    def _failover(
        self, pending: dict, doc_for, parent_span,
        deadline_at: float | None, hosts=None, given_up: set | None = None,
    ) -> tuple:
        """The one failover loop of every router→shard call.

        ``pending`` maps each partition id to serve to the hosts already
        known to have lost it.  Each round picks a host per pid
        (:meth:`_pick_retry_host`, over ``hosts`` when given, else the
        replica chain), groups the pids by host and sends each group
        ``doc_for(host, pids, budget_ms)`` through :meth:`_shard_call`:
        on the calling thread for one group, through the fan-out pool
        for several.  Each outcome has one rule:

        * a *call failure* (transport, injected crash, timeout, any
          other typed shard error) excludes the host for this pass; the
          first time every host is excluded the host set is revisited,
          and a host that fails again is added to ``given_up``, the
          request's hosts not to call again (a caller that makes several
          passes for one request hands each the same set);
        * a *load failure* (``partial-result``, or the pid among the
          reply's lost partitions) excludes the host for that pid for
          good;
        * the request's *deadline*, whether the router's check fails or
          a shard answers ``deadline``, raises
          :class:`DeadlineExceededError`.

        A retry is counted, and its backoff slept, only before a round
        that calls.  Returns ``(replies, unserved, error)``: every
        ``(host, reply)`` in arrival order (a reply may have lost some
        of its pids), the pids no host served, and the last call error.
        """
        injector = get_injector()
        retry = injector.retry if injector is not None else RetryPolicy()
        call_failed = {pid: set() for pid in pending}
        load_failed = {pid: set(lost) for pid, lost in pending.items()}
        revisited: set[int] = set()
        if given_up is None:
            given_up = set()
        todo = list(pending)
        unserved: list[int] = []
        replies: list = []
        error = None
        for attempt in range(1, retry.max_attempts + 1):
            groups: dict[int, list] = {}
            for pid in todo:
                host = self._pick_retry_host(
                    pid, call_failed[pid], load_failed[pid], revisited,
                    given_up, hosts,
                )
                if host is None:
                    unserved.append(pid)  # lost on every host
                else:
                    groups.setdefault(host, []).append(pid)
            todo = []
            if not groups:
                break
            if attempt > 1:
                self._retry_pause(
                    injector, retry, attempt - 1, deadline_at,
                    "shard", *pending,
                )
            remaining = self._check_deadline(deadline_at)
            budget_ms = None if remaining is None else remaining * 1000.0
            calls = []
            for host, pids in groups.items():
                doc = doc_for(host, pids, budget_ms)
                # A shard-knn doc names every partition it scans.
                calls.append((
                    host, doc, parent_span, attempt,
                    doc.get("partitions", pids),
                ))
            if len(calls) == 1:
                outcomes = [self._shard_call(*calls[0])]
            else:
                futures = [
                    self._fanout.submit(self._shard_call, *call)
                    for call in calls
                ]
                outcomes = [future.result() for future in futures]
            for (host, pids), (reply, failure, lost) in zip(
                groups.items(), outcomes
            ):
                if isinstance(failure, DeadlineExceededError):
                    raise failure
                if failure is None:
                    replies.append((host, reply))
                else:
                    error = failure
                for pid in pids:
                    if pid in lost:
                        load_failed[pid].add(host)
                    elif failure is not None:
                        call_failed[pid].add(host)
                        if pid in revisited:
                            given_up.add(host)
                    else:
                        continue
                    todo.append(pid)
        return replies, unserved + todo, error

    def _journal_failover(
        self, shard_id: int, op: str, reason: str, attempt: int,
        partition_ids=None, trace_id: str | None = None,
    ) -> None:
        """Record a failover event: shard ``shard_id`` failed ``op`` and
        the router is re-routing (or giving up).  ``shard_id`` is the
        shard the event is *about* — provenance the merged cluster
        journal preserves even though the record originates here."""
        fields: dict = {
            "shard_id": int(shard_id), "op": op,
            "reason": reason, "attempt": int(attempt),
        }
        if partition_ids:
            fields["partition_ids"] = sorted(int(p) for p in partition_ids)
        if trace_id:
            fields["trace_id"] = trace_id
        self.journal.record("failover", **fields)

    def _adopt_trace(self, trace_doc, parent_span) -> None:
        """Stitch a shard-returned span tree under the router's call span.

        Handles both reply forms: the compact flat summary shards ship
        on the carrier path (rebuilt via ``spans_from_compact``) and the
        full recursive tree older shards / direct traces return.  Either
        way the subtree is rebased onto the call span's start, so
        cluster waterfalls lay router and shard segments on one axis.
        """
        tracer = get_tracer()
        if not trace_doc or not tracer.enabled:
            return
        if not isinstance(parent_span, Span):
            return
        if isinstance(trace_doc, dict) and trace_doc.get("compact"):
            root = spans_from_compact(trace_doc, base_s=parent_span.start_s)
        else:
            root = span_from_dict(trace_doc, base_s=parent_span.start_s)
        if root is not None:
            tracer.adopt([root], parent=parent_span)

    # -- forwarded ops (exact-match, TNA/OPA kNN) ---------------------------

    def _execute_forward(
        self, request: QueryRequest, parent_span, deadline_at: float | None
    ):
        """Forward one whole request to a replica of its home partition.

        A home partition no host can serve degrades kNN to the empty
        answer and turns exact-match, which has no sound partial answer,
        into :class:`PartialResultError`.
        """
        signature, _paa = query_signature(self.index, request.series)
        partition_id = self.index.global_index.route(signature)
        want_trace = get_tracer().enabled
        series = request.series.tolist()
        if request.op == "exact-match":
            doc = {
                "op": "exact-match", "series": series,
                "use_bloom": request.use_bloom, "trace": want_trace,
            }
        else:
            doc = {
                "op": "knn", "series": series, "strategy": request.strategy,
                "k": request.k, "pth": request.pth, "trace": want_trace,
            }
        replies, unserved, error = self._failover(
            {partition_id: ()}, _with_budget(doc), parent_span, deadline_at
        )
        if not unserved:
            return wire_to_result(replies[-1][1])
        if request.op == "exact-match":
            raise PartialResultError(
                [partition_id], detail="exact-match home shard"
            ) from error
        return KnnResult(
            neighbors=[], strategy=request.strategy, degraded=True,
            missing_partitions=[partition_id],
        )

    # -- distributed MPA ----------------------------------------------------

    def _execute_mpa(
        self, request: QueryRequest, parent_span, deadline_at: float | None
    ) -> KnnResult:
        signature, paa = query_signature(self.index, request.series)
        pth = request.pth or self.index.config.pth
        bounds = sibling_bound_lookup(self.index, signature, paa)
        home_pid, pid_list = select_mpa_partitions(
            self.index.global_index, signature, pth, bound_of=bounds,
        )
        bounds.annotate(parent_span)
        k = request.k
        series = request.series.tolist()
        want_trace = get_tracer().enabled

        def knn_doc(pids, **phase) -> dict:
            doc = {
                "op": "shard-knn", "series": series, "k": k,
                "partitions": list(pids), **phase,
            }
            if want_trace:
                doc["trace"] = True
            return doc

        def seed_doc(host, _pids, _budget_ms) -> dict:
            # The seed piggybacks every capped pid its host also holds,
            # so the common no-fault case is (home shard) + (one call
            # per remaining host).
            hosted = set(self.plan.hosted(host))
            return knn_doc(
                [pid for pid in pid_list if pid in hosted], home=home_pid
            )

        # Phase 1: seed call to a shard hosting the home partition.
        tracer = get_tracer()
        seed_span = tracer.start_span(
            "route/seed", parent=parent_span, home_partition=home_pid,
        )
        given_up: set[int] = set()
        seeds, home_lost, _error = self._failover(
            {home_pid: ()}, seed_doc, seed_span, deadline_at,
            given_up=given_up,
        )
        if home_lost:
            seed_span.set("error", "home-lost")
        tracer.end_span(seed_span)
        if home_lost:
            # The threshold partition is gone everywhere: the answer
            # degrades to the empty (trivially correct) subset, exactly
            # like a failed home load in single-process MPA.  The
            # scatter below still runs — with an open threshold and its
            # answers discarded — so ``missing_partitions`` names every
            # unreachable partition of the capped list and
            # ``partition_ids_loaded`` the reachable ones, matching the
            # in-process loader's accounting.
            missing = {home_pid}
            threshold = None
            replies: list = []
            loaded: set[int] = set()
        else:
            seed_shard, seed_reply = seeds[-1]
            missing = set()
            threshold = seed_reply.get("threshold")
            replies = [seed_reply]
            loaded = set(seed_reply.get("loaded", []))

        # Phase 2: scatter the threshold to the remaining partitions,
        # grouped per host, under the same failover loop; the seed
        # host's failed loads, and the hosts the seed gave up on, stay
        # excluded.
        pending = {
            pid: set() for pid in pid_list
            if pid not in loaded and pid not in missing
        }
        if not home_lost:
            for pid in seed_reply.get("missing", []):
                pending[pid].add(seed_shard)
        scatter_span = tracer.start_span(
            "route/scatter", parent=parent_span,
            n_partitions=len(pending),
        )
        scattered, unserved, _error = self._failover(
            pending,
            lambda _host, pids, _budget_ms: knn_doc(
                pids, threshold=threshold
            ),
            scatter_span, deadline_at, given_up=given_up,
        )
        tracer.end_span(scatter_span)
        for _host, reply in scattered:
            replies.append(reply)
            loaded.update(reply.get("loaded", []))
        missing.update(unserved)
        missing_list = sorted(missing)
        accounting = dict(
            strategy="multi-partitions",
            partitions_loaded=len(loaded),
            partition_ids_loaded=[pid for pid in pid_list if pid in loaded],
            degraded=bool(missing_list),
            missing_partitions=missing_list,
        )
        if home_lost:
            return KnnResult(neighbors=[], **accounting)

        # Gather: the one merge (core.queries.merge_top_k), cut at the
        # synopsis bounds of whatever went missing.
        gather_span = tracer.start_span(
            "route/gather", parent=parent_span, replies=len(replies),
        )
        missing_bounds = (
            list(self.index.region_bounds(paa, missing_list).values())
            if missing_list else []
        )
        neighbors = merge_top_k(
            [
                [
                    Neighbor(float(d), int(r))
                    for d, r in reply.get("neighbors", [])
                ]
                for reply in replies
            ],
            k, missing_bounds,
        )
        if missing_list:
            tracer.end_span(tracer.start_span(
                "route/degraded-cut", parent=gather_span,
                degraded=True, missing_partitions=missing_list,
                safe_bound=min(missing_bounds),
            ))
        gather_span.set("merged", len(neighbors))
        tracer.end_span(gather_span)
        return KnnResult(
            neighbors=neighbors,
            candidates_examined=sum(
                int(reply.get("candidates", 0)) for reply in replies
            ),
            rows_refined=sum(
                int(reply.get("refined", 0)) for reply in replies
            ),
            rows_scored=sum(
                int(reply.get("scored", 0)) for reply in replies
            ),
            nodes_visited=(
                int(seed_reply.get("target_layer", -1)) + 1
                + sum(int(reply.get("visited", 0)) for reply in replies)
            ),
            nodes_pruned=sum(
                int(reply.get("pruned", 0)) for reply in replies
            ),
            **accounting,
        )

    # -- streaming writes ---------------------------------------------------

    def _op_write(self, doc: dict) -> dict:
        """Wire handler for ``write`` / ``write-batch`` on the router.

        Runs in the handler thread (like shard-knn on shards): admission
        control for writes lives at each shard's own queue.

        Routes each row through the router's Tardis-G to its home
        partition, then forwards one ``write-batch`` per partition to
        **every** replica in its host chain (reads pick one replica;
        writes must reach all of them or the copies diverge).  Record
        ids are router-assigned so replicas agree; shards floor their
        local counters on the pinned ids.  Acknowledged rows update the
        router's own region synopses in place — MINDIST bounds stay
        sound without a re-scrape — and invalidate the affected cached
        answers.

        Semantics are at-least-once per replica: a retry after a lost
        ack may re-apply on a replica that already holds the rows.  The
        reply lists ``replicas_failed`` when some (but not all) hosts of
        a partition could not be reached; a partition whose entire host
        chain fails raises, surfacing as a typed wire error, and a spent
        budget raises :class:`DeadlineExceededError` (wire ``deadline``)
        — rows already delivered stay written, and the router's
        synopses and cache account for them all the same.
        """
        request = self.parse_write(doc)
        batch = request.batch
        self._check_length(batch.shape[1], "write series")
        n = batch.shape[0]
        deadline_at = self._deadline_at(request, time.monotonic())
        if request.record_ids is not None:
            record_ids = list(request.record_ids)
        else:
            with self._write_lock:
                record_ids = list(range(
                    self._write_counter, self._write_counter + n
                ))
                self._write_counter += n
        # Route the batch with one conversion and one table walk, then
        # group rows by home partition, preserving batch order per group.
        signatures, _paa, _symbols = convert_batch(batch, self.index.config)
        row_pids = self.index.global_index.route_many(signatures).tolist()
        groups: dict[int, list[int]] = {}
        for i, pid in enumerate(row_pids):
            if pid not in self.index.synopses:
                raise ValueError(
                    f"row {i} routes to partition {pid}, which is not "
                    f"present in this cluster"
                )
            groups.setdefault(pid, []).append(i)
        tracer = get_tracer()
        root = self._start_root(
            "write", None, op="write", n_records=n, n_partitions=len(groups),
        )
        registry = get_registry()
        durable = True
        regions_added: dict[int, list] = {}
        replicas_failed: list = []
        given_up: set[int] = set()
        try:
            for pid, rows in groups.items():
                sub_batch = [batch[i].tolist() for i in rows]
                sub_ids = [record_ids[i] for i in rows]
                doc_for = _with_budget({
                    "op": "write-batch", "batch": sub_batch,
                    "record_ids": sub_ids,
                })
                hosts = self.plan.hosts_of(pid)
                acks = []
                try:
                    for shard_id in hosts:
                        delivered, _lost, _error = self._failover(
                            {pid: ()}, doc_for, root, deadline_at,
                            hosts=(shard_id,), given_up=given_up,
                        )
                        if delivered:
                            acks.append(delivered[-1][1])
                        else:
                            replicas_failed.append([int(pid), int(shard_id)])
                            self._write_replica_failures += 1
                            registry.counter(
                                "router_write_replica_failures_total",
                                "Write fan-out legs that exhausted retries",
                            ).inc()
                finally:
                    # Rows a replica acked are stored even when a later
                    # leg raises (a spent budget), so fold them in first:
                    # a synopsis without their regions would make MINDIST
                    # bounds unsound.
                    if acks:
                        self._absorb_write(pid, len(rows), acks[0],
                                           regions_added)
                if not acks:
                    raise ShardUnavailableError(pid, hosts)
                if not all(a.get("durable") for a in acks):
                    durable = False
        except BaseException as exc:
            root.set("error", f"{type(exc).__name__}: {exc}")
            tracer.end_span(root)
            self._writes_failed += 1
            registry.counter(
                "router_writes_failed_total",
                "Router writes failed before full acknowledgement",
            ).inc()
            raise
        finally:
            if regions_added and self.result_cache is not None:
                # Grown regions shrink MINDIST bounds: cached MPA answers
                # that pruned these partitions may now be wrong.
                self.result_cache.invalidate_strategy("multi-partitions")
        if replicas_failed:
            root.set("replicas_failed", replicas_failed)
        tracer.end_span(root)
        self._writes_total += 1
        self._write_records_total += n
        registry.counter(
            "router_writes_total", "Write batches acknowledged by the router"
        ).inc()
        registry.counter(
            "router_write_records_total", "Records written via the router"
        ).inc(n)
        result = WriteResult(
            record_ids=record_ids,
            partition_ids=row_pids,
            durable=durable,
            regions_added=regions_added,
        )
        wire = result.to_wire()
        if replicas_failed:
            wire["replicas_failed"] = replicas_failed
        return wire

    def _absorb_write(
        self, pid: int, n_rows: int, ack: dict, regions_added: dict
    ) -> None:
        """Fold one partition's acknowledged rows into the router
        synopsis, note its new regions for the reply, and drop the
        partition's cached answers.  Replicas share routing and
        contents, so any one ack's region report describes the
        partition."""
        new_prefixes: list = []
        for prefixes in ack.get("regions_added", {}).values():
            new_prefixes.extend(prefixes)
        self.index.synopses[pid].absorb(n_rows, new_prefixes)
        if new_prefixes:
            regions_added[int(pid)] = new_prefixes
        if self.result_cache is not None:
            self.result_cache.invalidate_partition(pid)

    # -- cluster telemetry (federation scrape) ------------------------------

    def _telemetry_fetch(self, shard_id: int, since_seq: int):
        """Fetch one shard's ``telemetry`` payload; ``None`` on failure
        (the scraper keeps stale state and an untouched watermark)."""
        try:
            envelope = self._call_once(
                shard_id, "telemetry",
                {"op": "telemetry", "since_seq": int(since_seq)},
                attempt=1,
            )
            return unwrap_reply(envelope)
        except (_ShardCallError, RuntimeError):
            return None

    def _scrape_loop(self) -> None:
        while not self._scrape_stop.wait(self.scrape_interval_s):
            self.telemetry.scrape()

    def scrape_now(self) -> dict:
        """One synchronous federation scrape (CLI/top and shutdown)."""
        return self.telemetry.scrape()

    def write_cluster_journal(self, path) -> dict:
        """Drain every shard once more, then write the provenance-tagged
        merged cluster journal (router + all shards) to ``path``."""
        self.scrape_now()
        sources = {"router": self.journal.snapshot()}
        sources.update(self.telemetry.shard_journals())
        stats = {"router": self.journal.stats()}
        stats.update(self.telemetry.shard_journal_stats())
        return write_merged_journal(path, sources, stats)

    # -- health -------------------------------------------------------------

    def _health_loop(self) -> None:
        while not self._health_stop.wait(self.health_interval_s):
            self.check_health()

    def check_health(self) -> dict:
        """Ping every shard once; returns ``{shard_id: up}``."""
        status = {}
        for shard_id in self._shards:
            try:
                envelope = self._call_once(
                    shard_id, "ping", {"op": "ping"}, attempt=1
                )
                status[shard_id] = bool(envelope.get("ok"))
            except _ShardCallError:
                status[shard_id] = False
        return status

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        report = super().stats()
        report["config"].update(
            workers=self.workers,
            call_timeout_s=self.call_timeout_s,
            trace_sample=self.trace_sample,
            scrape_interval_s=self.scrape_interval_s,
        )
        report["topology"] = {
            "shards": self.plan.n_shards,
            "replicas": self.plan.replication,
            "pth": self.index.config.pth,
        }
        with self._state_lock:
            report["shards"] = [
                self._shards[shard_id].snapshot()
                for shard_id in sorted(self._shards)
            ]
        report["ingest"] = {
            "writes_total": self._writes_total,
            "write_records_total": self._write_records_total,
            "writes_failed": self._writes_failed,
            "replica_failures": self._write_replica_failures,
            "next_record_id": self._write_counter,
        }
        if self.telemetry.scrapes > 0:
            report["cluster"] = self.telemetry.cluster_report()
        return report

    def slowest_recent_trace(self, window: int = 32) -> dict | None:
        """Full span tree of the slowest request among the last
        ``window`` retained roots — cluster ``top``'s timeline pane."""
        roots = get_tracer().roots[-max(1, window):]
        if not roots:
            return None
        slowest = max(roots, key=lambda r: r.duration_s or 0.0)
        return slowest.to_dict()
