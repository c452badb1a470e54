"""Metrics federation: merge per-shard registries into one cluster view.

The router scrapes each shard's :meth:`MetricsRegistry.to_wire` payload
(over the ``telemetry`` wire op) and folds the set into a *federated*
document with per-kind merge semantics:

* **counters sum** — a cluster total is meaningful and lossless;
* **gauges keep per-shard labels** — summing queue depths or ``*_up``
  flags across shards destroys the signal, so gauges federate as
  ``{shard: value}`` maps;
* **histograms merge buckets** — bucket counts add element-wise
  (:meth:`Histogram.merge`), so cluster p50/p95/p99 come from the
  *merged distribution*, not from averaging per-shard percentiles
  (which is not a percentile of anything).

The federated document is plain JSON, queryable for cluster quantiles
(:func:`federated_quantile`).
"""

from __future__ import annotations

from .metrics import Histogram

__all__ = [
    "merge_registry_wires",
    "histogram_from_wire",
    "federated_quantile",
    "federated_percentiles",
]


def histogram_from_wire(doc: dict, name: str = "wire") -> Histogram:
    """Reconstruct a live :class:`Histogram` from one wire document."""
    hist = Histogram(name, doc.get("help", ""), buckets=doc["bounds"])
    buckets = list(doc.get("buckets") or [])
    if len(buckets) != len(hist._bucket_counts):
        raise ValueError(
            f"histogram {name!r}: {len(buckets)} bucket counts for "
            f"{len(hist._bucket_counts)} buckets"
        )
    hist._bucket_counts = [int(n) for n in buckets]
    hist._sum = float(doc.get("sum", 0.0))
    hist._count = int(doc.get("count", sum(buckets)))
    return hist


def merge_registry_wires(wires: dict) -> dict:
    """Fold ``{shard_label: registry.to_wire()}`` into one federated doc.

    Returns ``{metric_name: merged}`` where ``merged`` is, per kind::

        counter:   {"kind", "help", "value": sum, "by_shard": {label: v}}
        gauge:     {"kind", "help", "by_shard": {label: v}}
        histogram: {"kind", "help", "bounds", "buckets": merged,
                    "sum", "count", "by_shard_count": {label: n}}

    Histograms whose bounds disagree with the first-seen shard's (only
    possible across a version-skewed rollout) are left out of the merge
    and recorded under ``"skipped_shards"`` instead of silently
    producing wrong buckets.
    """
    merged: dict = {}
    for label in sorted(wires, key=str):
        wire = wires[label] or {}
        for name, doc in wire.items():
            kind = doc.get("kind")
            slot = merged.get(name)
            if kind == "histogram":
                if slot is None:
                    slot = merged[name] = {
                        "kind": "histogram",
                        "help": doc.get("help", ""),
                        "bounds": list(doc["bounds"]),
                        "buckets": [0] * (len(doc["bounds"]) + 1),
                        "sum": 0.0,
                        "count": 0,
                        "by_shard_count": {},
                    }
                if list(doc["bounds"]) != slot["bounds"]:
                    slot.setdefault("skipped_shards", []).append(str(label))
                    continue
                buckets = list(doc.get("buckets") or [])
                for i, n in enumerate(buckets[: len(slot["buckets"])]):
                    slot["buckets"][i] += int(n)
                slot["sum"] += float(doc.get("sum", 0.0))
                count = int(doc.get("count", sum(buckets)))
                slot["count"] += count
                slot["by_shard_count"][str(label)] = count
            elif kind == "counter":
                if slot is None:
                    slot = merged[name] = {
                        "kind": "counter",
                        "help": doc.get("help", ""),
                        "value": 0.0,
                        "by_shard": {},
                    }
                value = float(doc.get("value", 0.0))
                slot["value"] += value
                slot["by_shard"][str(label)] = value
            elif kind == "gauge":
                if slot is None:
                    slot = merged[name] = {
                        "kind": "gauge",
                        "help": doc.get("help", ""),
                        "by_shard": {},
                    }
                slot["by_shard"][str(label)] = float(doc.get("value", 0.0))
    return merged


def federated_quantile(merged_doc: dict, q: float) -> float:
    """Quantile of one federated histogram entry (merged buckets)."""
    hist = Histogram("federated", merged_doc.get("help", ""),
                     buckets=merged_doc["bounds"])
    hist._bucket_counts = [int(n) for n in merged_doc["buckets"]]
    hist._sum = float(merged_doc.get("sum", 0.0))
    hist._count = int(merged_doc.get("count", 0))
    return hist.quantile(q)


def federated_percentiles(merged_doc: dict) -> dict:
    """p50/p95/p99 (+ sample count) of one federated histogram entry."""
    return {
        "p50_s": federated_quantile(merged_doc, 0.50),
        "p95_s": federated_quantile(merged_doc, 0.95),
        "p99_s": federated_quantile(merged_doc, 0.99),
        "samples": int(merged_doc.get("count", 0)),
    }
