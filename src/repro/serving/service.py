"""The query service: micro-batch → partition groups → result cache.

:class:`QueryService` is the long-lived serving loop over one loaded
:class:`~repro.core.builder.TardisIndex`.  Admission, deadlines, the
per-request trace root and the finish (SLO tracker, slow-query log) are
the :class:`~repro.serving.frontend.RequestFrontEnd`'s; this module is
what happens to a dequeued window in between:

1. One batcher thread takes the queue a window at a time: the first
   ticket plus whatever queued behind it while the previous window ran
   (natural batching; ``max_delay_ms`` > 0 opts into a linger measured
   from that first ticket's arrival).  Writes in the window are applied
   first — route → fault gate → WAL → index → caches — under the
   maintenance lock the online rebalancer shares.
2. The window's reads are grouped by plan + Tardis-G home partition and
   run, one group after another, on the batcher thread — per-strategy
   routing happens inside :func:`repro.serving.batcher.run_group`, which
   stitches ``serve/batch-wait`` / ``serve/execute`` (and the core
   load/scan spans beneath) under each request's root.
3. Completed groups feed the result cache and finish their tickets;
   writes are acknowledged after the window's single WAL fsync.

Answers are identical to the :mod:`repro.core.queries` path for every
batch size (tests/serving/test_service_equivalence.py).
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import Future
from pathlib import Path

from ..core.builder import TardisIndex
from ..core.rebalance import OnlineRebalancer
from ..core.wal import WriteAheadLog
from ..faults.errors import InjectedTaskCrash
from ..faults.injector import FaultInjector, get_injector
from ..telemetry.journal import EventJournal
from ..telemetry.metrics import get_registry
from ..telemetry.spans import get_tracer
from .batcher import group_tickets, partitions_loaded, run_group
from .frontend import RequestFrontEnd, Ticket
from .requests import WriteRequest, WriteResult

__all__ = ["QueryService", "Ticket"]

logger = logging.getLogger(__name__)


def _sit_out_injected_faults(
    site_fault, domain: str, op: str, partition_id: int
) -> None:
    """Fire one ``<domain>/<op>`` fault site ahead of the work it guards.

    ``site_fault`` is the injector method that draws the site's fault
    (:meth:`FaultInjector.serve_fault`, ``.ingest_fault``).  The pauses
    and delay :meth:`FaultInjector.sit_out` returns are slept here; an
    exhausted budget raises :class:`InjectedTaskCrash` before any of the
    guarded work ran.
    """
    injector = get_injector()
    if injector is None:
        return
    seq = injector.next_seq(domain, op, partition_id)

    def crashed(attempts: int, backoff_s: float) -> InjectedTaskCrash:
        time.sleep(backoff_s)
        return InjectedTaskCrash(
            f"{domain}/{op}/partition {partition_id}", attempts
        )

    _failed, backoff_s, slow_s = injector.sit_out(
        lambda attempt: site_fault(injector, op, partition_id, seq, attempt),
        (domain, op, partition_id, seq),
        crashed,
    )
    time.sleep(backoff_s + slow_s)


class QueryService(RequestFrontEnd):
    """Serve Exact-Match and kNN queries over a loaded TARDIS index."""

    def __init__(
        self,
        index: TardisIndex,
        *,
        queue_capacity: int = 256,
        policy: str = "block",
        max_batch: int = 16,
        max_delay_ms: float = 0.0,
        result_cache_size: int | None = 1024,
        slow_query_threshold_ms: float = 100.0,
        journal_sample: float = 0.0,
        journal: EventJournal | None = None,
        default_deadline_ms: float | None = None,
        wal: WriteAheadLog | str | Path | None = None,
        rebalance: bool = False,
        rebalance_overflow: float = 1.5,
        rebalance_interval_s: float = 0.25,
    ):
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if max_delay_ms < 0:
            raise ValueError("max_delay_ms cannot be negative")
        if not index.clustered:
            # Exact-match compares raw values and kNN refines with them;
            # the signature-only unclustered paths (core.unclustered) are
            # analysis tools, not serving surfaces.
            raise RuntimeError(
                "serving needs a clustered index (build with clustered=True)"
            )
        super().__init__(
            index,
            queue_capacity=queue_capacity,
            policy=policy,
            consumers=1,
            max_batch=max_batch,
            max_delay_s=max_delay_ms / 1000.0,
            result_cache_size=result_cache_size,
            slow_query_threshold_ms=slow_query_threshold_ms,
            journal_sample=journal_sample,
            journal=journal,
            default_deadline_ms=default_deadline_ms,
        )
        # -- streaming ingest ---------------------------------------------
        # Writes are applied by the batcher thread under this lock; the
        # online rebalancer's snapshot and swap phases take it too, so a
        # read window never observes a half-applied insert or a
        # half-swapped partition layout.
        self._maintenance_lock = threading.Lock()
        self._owns_wal = isinstance(wal, (str, Path))
        self.wal = WriteAheadLog(wal) if self._owns_wal else wal
        self._writes_total = 0
        self._write_records_total = 0
        self._writes_failed = 0
        #: Shards set this: pinned-id rows already present in their
        #: routed partition are acknowledged without re-inserting, so
        #: replica fan-out and redelivery stay idempotent.
        self._idempotent_writes = False
        self._ingest_rate = 0.0
        self._rate_window_start = time.monotonic()
        self._rate_acc = 0
        self.rebalancer: OnlineRebalancer | None = None
        if rebalance:
            self.rebalancer = OnlineRebalancer(
                index,
                overflow_factor=rebalance_overflow,
                interval_s=rebalance_interval_s,
                wal=self.wal,
                gate=self._maintenance_gate,
                on_applied=self._on_rebalanced,
                journal=self.journal,
            )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "QueryService":
        if self._started:
            return self
        super().start()
        if self.rebalancer is not None:
            self.rebalancer.start()
        logger.info(
            "serving started: policy=%s queue=%d max_batch=%d "
            "max_delay=%.1fms",
            self.queue.policy, self.queue.capacity, self.max_batch,
            self.max_delay_s * 1000.0,
        )
        return self

    def stop(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        if self.rebalancer is not None:
            self.rebalancer.stop()
        super().stop(drain, timeout)
        if self._owns_wal and self.wal is not None:
            self.wal.close()

    # -- write path ---------------------------------------------------------

    def submit_write(self, request: WriteRequest) -> Future:
        """Admit one batched append; the future resolves to a
        :class:`~repro.serving.requests.WriteResult`.

        Writes share the admission queue, backpressure policy, and
        deadline budget with queries.
        """
        self._check_running()
        self._check_length(request.batch.shape[1], "write series")
        root = self._start_root(
            "write", request.trace_ctx, op="write",
            n_records=int(request.batch.shape[0]),
        )
        return self._admit(request, root)

    def write(
        self, batch, record_ids=None, deadline_ms: float | None = None,
        timeout: float | None = None,
    ) -> WriteResult:
        """Blocking convenience wrapper around :meth:`submit_write`."""
        request = WriteRequest(
            batch=batch, record_ids=record_ids, deadline_ms=deadline_ms
        )
        return self.submit_write(request).result(timeout)

    def _op_write(self, doc: dict):
        """Wire handler for ``write`` / ``write-batch`` (extra_ops)."""
        return self.submit_write(self.parse_write(doc)).result().to_wire()

    # -- batch loop ---------------------------------------------------------

    def _execute_window(self, window: list) -> None:
        """One micro-batch of live tickets; the batcher thread applies
        writes between read windows — serialized, never concurrent with
        a query — and acknowledges them only after the batch reached the
        write-ahead log (when one is attached)."""
        tracer = get_tracer()
        live: list = []
        writes: list = []
        for ticket in window:
            # Batch wait: grouping + the sibling groups that run first.
            ticket.wait_span = tracer.start_span(
                "serve/batch-wait", parent=ticket.span
            )
            if isinstance(ticket.request, WriteRequest):
                writes.append(ticket)
            else:
                live.append(ticket)
        # The whole window runs under the maintenance lock — the same
        # lock the online rebalancer's snapshot and swap phases take.
        # Writes land first, in admission order, so reads in the same
        # window observe them; neither ever interleaves with a
        # half-swapped partition layout.  Reads still never wait on a
        # *rebalance*: the expensive re-pack (plan + partition build)
        # runs off-lock in the rebalancer thread, and only the brief
        # pointer swap contends here (measured as rebalance pause).
        #
        # WAL frames are written unsynced inside the window and fsynced
        # once after the reads run — acknowledgements wait for that
        # barrier (ack ⇒ fsynced), but reads sharing the window never
        # stall behind a disk flush for writes they can already see
        # in memory.
        pending: list = []
        with self._maintenance_lock:
            for ticket in writes:
                self._apply_write(ticket, pending)
            if live:
                self._execute_reads(live)
        if pending:
            if self.wal is not None:
                self.wal.sync()
            for ticket, result in pending:
                self._finish_write(ticket, result=result)

    def _execute_reads(self, window: list) -> None:
        groups = group_tickets(self.index, window)
        outcomes = [self._run_group_safely(group) for group in groups]
        loaded_pids: list = []
        for group, (results, error) in zip(groups, outcomes):
            if error is not None:
                self.journal.record(
                    "error", op=group.plan_key[0],
                    partition_id=group.partition_id,
                    n_queries=group.size, error=repr(error),
                )
                for ticket in group.tickets:
                    self._finish_read(ticket, group, len(window), error=error)
                continue
            loaded_pids.extend(partitions_loaded(results))
            for ticket, result in zip(group.tickets, results):
                if isinstance(result, BaseException):
                    # Typed per-query failure inside an otherwise healthy
                    # group (e.g. PartialResultError for a lost
                    # partition): fail this ticket, keep its siblings.
                    self._finish_read(ticket, group, len(window), error=result)
                    continue
                if self.result_cache is not None and not getattr(
                    result, "degraded", False
                ):
                    # Degraded answers are never cached: they reflect a
                    # transient unavailability, not the index's truth.
                    # Bloom-rejected exact matches never load a partition,
                    # so index the cached "not found" under the routed home
                    # partition (the group key): a write into that partition
                    # then invalidates the negative answer instead of
                    # leaving it stale forever.
                    pids = (
                        result.partition_ids_loaded or (group.partition_id,)
                    )
                    self.result_cache.put(
                        ticket.request.cache_key(), result, pids
                    )
                self._finish_read(ticket, group, len(window), result=result)
        self.slo.record_batch(len(window), len(groups), loaded_pids)
        self.journal.record(
            "batch", n_queries=len(window), n_groups=len(groups),
            partition_loads=len(loaded_pids),
            partitions=sorted(set(loaded_pids)),
        )

    def _finish_read(
        self, ticket, group, batch_size: int, result=None, error=None
    ) -> None:
        ticket.span.set("batch_size", batch_size)
        ticket.span.set("group_size", group.size)
        self._finish(
            ticket, result, error,
            batch_size=batch_size,
            group_size=group.size,
            partitions=(
                sorted(result.partition_ids_loaded) if result is not None
                else []
            ),
            batch_wait_s=max(
                0.0, ticket.exec_started_at - ticket.dequeued_at
            ),
        )

    # -- write apply (batcher thread, under the maintenance lock) -----------

    def _apply_write(self, ticket, pending: list) -> None:
        """Apply one write batch: route → fault gate → WAL → index → caches.

        Ordering is the durability contract: the batch reaches the
        write-ahead log *before* the in-memory apply, and the future is
        resolved only after the window's group fsync — so an
        acknowledged write survives a crash, and a crash before the WAL
        line means the client saw a failure, never a silent loss.
        Successful applies are staged on ``pending``; the drain loop
        fsyncs once and resolves them after the window's reads run.
        Failures resolve immediately (nothing to make durable) —
        injected ``ingest/append`` faults fire before the WAL frame for
        the same reason: a failed write must not replay.
        """
        tracer = get_tracer()
        ticket.exec_started_at = time.monotonic()
        tracer.end_span(ticket.wait_span)
        apply_span = tracer.start_span("serve/apply", parent=ticket.span)
        request = ticket.request
        try:
            # Route first: a batch that cannot route fails before it can
            # reach the WAL (replay would hit the same error).  The apply
            # below reuses this one conversion.
            routed = self.index.prepare_batch(request.batch)
            # A crash here fails the write *before* it reaches the WAL
            # (never durable, never acknowledged).
            _sit_out_injected_faults(
                FaultInjector.ingest_fault, "ingest", "append",
                int(routed.partition_ids[0]),
            )
            record_ids = request.record_ids
            durable = False
            if self.wal is not None:
                if record_ids is None:
                    # Pre-assign so the WAL frame carries the ids the
                    # index will use (replay pins them).
                    record_ids = [
                        self.index._next_record_id()
                        for _ in routed.partition_ids
                    ]
                self.wal.log_appends(
                    list(zip(record_ids, routed.values)), sync=False
                )
                durable = True
            report = self.index.ingest(
                routed, record_ids=record_ids,
                skip_existing=self._idempotent_writes and record_ids is not None,
            )
            if self.result_cache is not None:
                for pid in report.touched:
                    self.result_cache.invalidate_partition(pid)
                if any(report.regions_added.values()):
                    # Region growth shrinks MINDIST bounds: an MPA answer
                    # that *pruned* a touched partition may now be wrong
                    # (see result_cache.invalidate_strategy).
                    self.result_cache.invalidate_strategy("multi-partitions")
            result = WriteResult(
                record_ids=report.record_ids,
                partition_ids=report.partition_ids,
                durable=durable,
                regions_added=report.regions_added,
            )
            apply_span.set("n_records", len(report.record_ids))
            apply_span.set("partitions", sorted(set(report.touched)))
            tracer.end_span(apply_span)
            self._record_write_metrics(len(report.record_ids))
            pending.append((ticket, result))
        except BaseException as exc:
            apply_span.set("error", f"{type(exc).__name__}: {exc}")
            tracer.end_span(apply_span)
            self._writes_failed += 1
            get_registry().counter(
                "serving_writes_failed_total",
                "Write batches rejected or crashed before acknowledgement",
            ).inc()
            self._finish_write(ticket, error=exc)

    def _record_write_metrics(self, n_records: int) -> None:
        registry = get_registry()
        registry.counter(
            "serving_writes_total", "Write batches acknowledged"
        ).inc()
        registry.counter(
            "serving_write_records_total", "Records appended via serving"
        ).inc(n_records)
        self._writes_total += 1
        self._write_records_total += n_records
        # Records/sec over a rolling ~1s window, published as a gauge.
        self._rate_acc += n_records
        now = time.monotonic()
        elapsed = now - self._rate_window_start
        if elapsed >= 1.0:
            self._ingest_rate = self._rate_acc / elapsed
            registry.gauge(
                "serving_ingest_records_per_s",
                "Streaming-ingest throughput (rolling window)",
            ).set(self._ingest_rate)
            self._rate_window_start = now
            self._rate_acc = 0

    def _finish_write(self, ticket, result=None, error=None) -> None:
        ticket.exec_finished_at = time.monotonic()
        fields = {}
        if result is not None:
            fields = {
                "n_records": result.acknowledged, "durable": result.durable,
            }
        self._finish(ticket, result, error, **fields)

    # -- rebalancer hooks ----------------------------------------------------

    def _maintenance_gate(self, fn):
        """Run ``fn`` with the read/write pipeline excluded.

        Handed to the :class:`OnlineRebalancer` as its ``gate``: the
        snapshot and swap phases run inside, the expensive partition
        build runs outside — so the serving pause a rebalance causes is
        the swap alone.
        """
        with self._maintenance_lock:
            return fn()

    def _on_rebalanced(self, report) -> None:
        """Result-cache coherence after a committed rebalance cycle.

        Every split or created partition changes both contents and
        MINDIST bounds, so answers derived from it go; MPA answers
        planned against the old layout go wholesale (a replan may select
        the new partitions even for queries that never loaded the old
        ones).
        """
        if self.result_cache is None:
            return
        for pid in list(report.split_partition_ids) + list(
            report.created_partition_ids
        ):
            self.result_cache.invalidate_partition(pid)
        self.result_cache.invalidate_strategy("multi-partitions")

    def _run_group_safely(self, group):
        """(results, error) so one bad group cannot sink its siblings."""
        tracer = get_tracer()
        started = time.monotonic()
        for ticket in group.tickets:
            ticket.exec_started_at = started
            tracer.end_span(ticket.wait_span)
        try:
            # An injected ``task-crash`` on a ``serve/<op>`` site fails
            # the whole group attempt; ``task-slow`` delays it once.
            _sit_out_injected_faults(
                FaultInjector.serve_fault, "serve", group.plan_key[0],
                group.partition_id,
            )
            return run_group(self.index, group), None
        except BaseException as exc:
            return None, exc
        finally:
            finished = time.monotonic()
            for ticket in group.tickets:
                ticket.exec_finished_at = finished

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        report = super().stats()
        report["config"].update(
            max_batch=self.max_batch,
            max_delay_ms=self.max_delay_s * 1000.0,
        )
        report["ingest"] = {
            "writes_total": self._writes_total,
            "write_records_total": self._write_records_total,
            "writes_failed": self._writes_failed,
            "records_per_s": self._ingest_rate,
            "wal": (
                None if self.wal is None else {
                    "path": str(self.wal.path),
                    "appends_logged": self.wal.appends_logged,
                    "cycles_logged": self.wal.cycles_logged,
                }
            ),
        }
        if self.rebalancer is not None:
            report["rebalance"] = self.rebalancer.stats()
        from ..telemetry.perf import KERNELS

        if KERNELS.enabled:
            # Live kernel cost attribution for repro top / --stats.
            report["kernels"] = KERNELS.totals()
        return report
