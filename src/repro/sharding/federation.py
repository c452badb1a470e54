"""Cluster-side observability scraper: the router's federation state.

:class:`ClusterTelemetry` periodically drains every shard's
``telemetry`` wire op (see ``serving.server._telemetry_payload``) and
accumulates two per-shard states:

* **journal events** — drained incrementally by sequence watermark and
  kept per shard, ready for :func:`~repro.telemetry.journal.
  write_merged_journal` (cluster-wide provenance-tagged dump);
* **metrics registries** — the latest full wire form per shard, merged
  on demand through :func:`~repro.telemetry.federation.
  merge_registry_wires` (counters sum, gauges keep per-shard labels,
  histogram buckets add losslessly).

The scraper is transport-agnostic: it is handed a ``fetch(shard_id,
since_seq)`` callable (the router wires it to ``_call_once``), so tests
can drive it with in-process fakes.
"""

from __future__ import annotations

import threading
import time

from ..telemetry.federation import (
    federated_percentiles,
    merge_registry_wires,
)

__all__ = ["ClusterTelemetry"]

#: Journal events retained per shard (ring semantics mirror the shard's
#: own journal: the merged view must not grow without bound either).
MAX_EVENTS_PER_SHARD = 8192


class ClusterTelemetry:
    """Accumulated per-shard observability state on the router."""

    def __init__(self, fetch, shard_ids):
        self._fetch = fetch
        self.shard_ids = sorted(shard_ids)
        self._lock = threading.Lock()
        self._watermarks: dict[int, int] = {s: 0 for s in self.shard_ids}
        self._events: dict[int, list] = {s: [] for s in self.shard_ids}
        self._journal_stats: dict[int, dict] = {}
        self._metrics: dict[int, dict] = {}
        self._qps: dict[int, float] = {}
        self._prev_requests: dict[int, float] = {}
        self._prev_scrape_at: float | None = None
        self.scrapes = 0
        self.failed_scrapes = 0

    # -- scraping -----------------------------------------------------------

    def watermark(self, shard_id: int) -> int:
        with self._lock:
            return self._watermarks.get(shard_id, 0)

    def scrape(self) -> dict:
        """Pull every shard once; returns ``{shard_id: ok}``.

        A shard that fails its fetch keeps its previous state (stale is
        better than absent for a dashboard) and counts as a failed
        scrape; its journal watermark is untouched so nothing is lost —
        the next successful scrape drains the backlog.
        """
        now = time.monotonic()
        status: dict[int, bool] = {}
        for shard_id in self.shard_ids:
            payload = self._fetch(shard_id, self.watermark(shard_id))
            if not isinstance(payload, dict):
                status[shard_id] = False
                with self._lock:
                    self.failed_scrapes += 1
                continue
            status[shard_id] = True
            self._absorb(shard_id, payload, now)
        with self._lock:
            self.scrapes += 1
            self._prev_scrape_at = now
        return status

    def _absorb(self, shard_id: int, payload: dict, now: float) -> None:
        journal = payload.get("journal") or {}
        events = journal.get("events") or []
        metrics = payload.get("metrics")
        with self._lock:
            if events:
                bucket = self._events.setdefault(shard_id, [])
                bucket.extend(events)
                del bucket[:-MAX_EVENTS_PER_SHARD]
                self._watermarks[shard_id] = max(
                    self._watermarks.get(shard_id, 0),
                    max(e.get("seq", 0) for e in events),
                )
            if isinstance(journal.get("stats"), dict):
                self._journal_stats[shard_id] = journal["stats"]
            if isinstance(metrics, dict):
                self._metrics[shard_id] = metrics
                requests = (
                    metrics.get("shard_knn_requests_total", {})
                    .get("value", 0.0)
                )
                prev = self._prev_requests.get(shard_id)
                elapsed = (
                    now - self._prev_scrape_at
                    if self._prev_scrape_at is not None else None
                )
                if prev is not None and elapsed and elapsed > 0:
                    self._qps[shard_id] = max(0.0, requests - prev) / elapsed
                self._prev_requests[shard_id] = requests

    # -- merged views -------------------------------------------------------

    def shard_journals(self) -> dict:
        """``{shard_id: [events...]}`` for the merged-journal writer."""
        with self._lock:
            return {s: list(events) for s, events in self._events.items()}

    def shard_journal_stats(self) -> dict:
        with self._lock:
            return dict(self._journal_stats)

    def federated_metrics(self) -> dict:
        """Latest per-shard registries merged per federation semantics."""
        with self._lock:
            wires = dict(self._metrics)
        return merge_registry_wires(wires)

    def cluster_report(self) -> dict:
        """The ``cluster`` section of router stats (per-shard rows +
        merged percentiles) consumed by cluster ``top``."""
        merged = self.federated_metrics()
        with self._lock:
            rows = []
            for shard_id in self.shard_ids:
                metrics = self._metrics.get(shard_id, {})
                rows.append({
                    "shard_id": shard_id,
                    "qps": round(self._qps.get(shard_id, 0.0), 2),
                    "shard_knn_requests": (
                        metrics.get("shard_knn_requests_total", {})
                        .get("value", 0.0)
                    ),
                    "queue_depth": (
                        metrics.get("serving_queue_depth", {})
                        .get("value")
                    ),
                    "journal_events": len(self._events.get(shard_id, [])),
                })
            scrapes = self.scrapes
            failed = self.failed_scrapes
        report = {
            "scrapes": scrapes,
            "failed_scrapes": failed,
            "shards": rows,
        }
        latency = merged.get("shard_request_seconds")
        if latency is not None:
            report["shard_latency"] = federated_percentiles(latency)
        return report
