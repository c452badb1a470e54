"""Shard-side serving: a QueryService over a subset of partitions.

A shard owns its assigned primaries plus any chained replica copies
(:meth:`ShardPlan.hosted`).  Because Tardis-G is tiny, every shard
keeps the *full* global sigTree — routing an exact-match or a
single-partition kNN inside a shard is exactly the single-process code
path, which is what makes forwarded answers bit-identical by
construction.

The shard adds one wire op, ``shard-knn`` — the scatter target of
distributed Multi-Partitions Access.  The router decides *which*
partitions participate (the ``pth`` fan-out cap) and splits them by
host; each shard runs :func:`repro.core.queries.scan_partitions` over
its slice — as the seed (threshold from the home target node) on the
home shard, with the seed's threshold everywhere else — and refines
what passed in one :class:`~repro.core.queries.RunningTopK`.  At most
``k`` neighbors a call travel back to the router's
:func:`~repro.core.queries.merge_top_k`: the top-k of per-shard top-ks
is the top-k of their union, and the degraded cut stays at the router,
the only place that knows which partitions went missing everywhere.

``shard-knn`` runs in the connection handler thread and bypasses the
shard's admission queue: backpressure, deadlines, caching and SLO
accounting for distributed kNN live at the router, which sees the
whole query.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from ..core.builder import TardisIndex
from ..core.queries import RunningTopK, query_signature, scan_partitions
from ..telemetry.carrier import extract, reply_trace
from ..telemetry.metrics import get_registry
from ..telemetry.spans import Span, get_tracer, trace_id_of
from ..serving.requests import wire_series
from ..serving.service import QueryService
from ..serving.slo import LATENCY_BUCKETS

__all__ = ["ShardService", "subset_index"]

logger = logging.getLogger(__name__)


def subset_index(index: TardisIndex, partition_ids) -> TardisIndex:
    """An index view holding only ``partition_ids``.

    Shares the config and the (small) global sigTree with the source;
    the partitions dict is restricted to what this shard hosts.  A
    lookup outside the subset raises ``KeyError`` — shards must never
    silently answer for partitions they do not hold.
    """
    partition_ids = sorted(partition_ids)
    missing = [pid for pid in partition_ids if pid not in index.partitions]
    if missing:
        raise KeyError(f"partitions not in index: {missing}")
    partitions = {pid: index.partitions[pid] for pid in partition_ids}
    return TardisIndex(
        config=index.config,
        global_index=index.global_index,
        partitions=partitions,
        dataset_name=index.dataset_name,
        n_records=sum(p.n_records for p in partitions.values()),
        series_length=index.series_length,
        clustered=index.clustered,
    )


class ShardService(QueryService):
    """A QueryService for one shard, plus the ``shard-knn`` scatter op."""

    def __init__(self, index: TardisIndex, *, shard_id: int = 0, **kwargs):
        super().__init__(index, **kwargs)
        self.shard_id = int(shard_id)
        self.root_attrs = {"shard_id": self.shard_id}
        #: Dispatched by the wire handler before the standard request
        #: path (see serving.server._Handler._answer).  Extends — never
        #: replaces — the ops QueryService registered (write/write-batch
        #: must keep working on a shard: the router forwards them here).
        self.extra_ops["shard-knn"] = self._op_shard_knn
        #: Router writes fan out to every replica and may redeliver
        #: after a lost ack; pinned-id re-insertion must be a no-op.
        self._idempotent_writes = True

    def _op_shard_knn(self, doc: dict) -> dict:
        """One shard's slice of a distributed MPA query.

        With ``home`` given (the seed call) the reply carries the
        threshold this shard computed (``None`` meaning +inf) and the
        target node's layer, or ``home_lost`` when the home partition
        would not load; otherwise ``threshold`` must carry the seed's
        value.  Partitions that fail to load after the injector's
        retries are reported in ``missing`` — the router decides whether
        a replica can still serve them.
        """
        series = wire_series(doc, "series")
        if series is None:
            raise ValueError("shard-knn needs 'series_b64' or 'series'")
        self._check_length(len(series), "query")
        k = int(doc.get("k", 10))
        if k <= 0:
            raise ValueError("k must be positive")
        partition_ids = doc.get("partitions")
        if not isinstance(partition_ids, list) or not partition_ids:
            raise ValueError("'partitions' must be a non-empty list of ids")
        partition_ids = [int(pid) for pid in partition_ids]
        foreign = [
            pid for pid in partition_ids if pid not in self.index.partitions
        ]
        if foreign:
            raise ValueError(
                f"shard {self.shard_id} does not host partitions {foreign}"
            )
        home_pid = doc.get("home")
        threshold = doc.get("threshold")
        ctx = extract(doc)
        tracer = get_tracer()
        root = self._start_root(
            "request", ctx, local="shard", op="shard-knn",
            n_partitions=len(partition_ids),
        )
        token = tracer.attach(root)
        started = time.perf_counter()
        try:
            signature, paa = query_signature(self.index, series)
            scan = scan_partitions(
                self.index, series, signature, paa, k, partition_ids,
                home_pid=None if home_pid is None else int(home_pid),
                threshold=np.inf if threshold is None else float(threshold),
            )
            top = RunningTopK(k) if scan.seed is None else scan.seed
            top.refine(series, scan.found)
        finally:
            tracer.detach(token)
            tracer.end_span(root)
            latency_s = time.perf_counter() - started
            self._mark_shard_knn(latency_s, len(partition_ids))
        self.slow_log.observe(
            latency_s,
            trace_id=trace_id_of(root),
            op="shard-knn", shard_id=self.shard_id,
            partitions=sorted(partition_ids),
        )
        reply: dict = {
            "loaded": sorted(scan.loaded),
            "missing": sorted(scan.missing),
            "neighbors": [[n.distance, n.record_id] for n in top.neighbors()],
            "candidates": scan.candidates,
            "refined": scan.refined,
            "scored": top.scored,
            "visited": scan.stats.visited,
            "pruned": scan.stats.pruned,
        }
        if scan.home_lost:
            reply["home_lost"] = True
        elif home_pid is not None:
            reply["threshold"] = (
                None if scan.threshold == np.inf else scan.threshold
            )
            reply["target_layer"] = scan.target_layer
        if doc.get("trace") and isinstance(root, Span):
            reply["trace"] = reply_trace(root, doc, ctx)
        return reply

    def _mark_shard_knn(self, latency_s: float, n_partitions: int) -> None:
        """Per-shard scatter-op accounting (the federation scrape feeds
        cluster QPS and merged latency percentiles from these)."""
        registry = get_registry()
        registry.counter(
            "shard_knn_requests_total",
            "shard-knn scatter calls answered by this shard",
        ).inc()
        registry.counter(
            "shard_knn_partitions_total",
            "Partitions scanned by shard-knn scatter calls",
        ).inc(n_partitions)
        registry.histogram(
            "shard_request_seconds",
            "shard-knn wall latency on the shard (handler thread)",
            buckets=LATENCY_BUCKETS,
        ).observe(latency_s)

    def stats(self) -> dict:
        report = super().stats()
        report["shard"] = {
            "shard_id": self.shard_id,
            "partitions": sorted(self.index.partitions),
            # Live sum, not the cached index counter: streamed writes
            # land in the shared partition objects, and in threads mode
            # a replica's idempotent skip never bumps its own view's
            # counter — the blocks are the ground truth.
            "n_records": sum(
                p.n_records for p in self.index.partitions.values()
            ),
        }
        return report
