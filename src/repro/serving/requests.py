"""Request model shared by the service, the wire protocol, and the cache.

A :class:`QueryRequest` names one query against a loaded index: the
series itself plus the *plan* — operation, kNN strategy, ``k``, ``pth``
and the Bloom toggle.  Two derived keys matter downstream:

* :meth:`QueryRequest.plan_key` — the execution plan alone.  The
  micro-batcher may only group requests that share a plan key: two
  queries over identical series but different ``(strategy, k, pth)``
  are different work and must never share a batch group or a cached
  answer (tests/serving/test_result_cache.py proves the regression).
* :meth:`QueryRequest.cache_key` — plan key plus a digest of the raw
  series bytes.  The iSAX-T signature is deliberately *not* used as the
  cache identity: distinct series can share a signature while having
  different exact answers, so the result cache keys on content.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..core.queries import KNN_STRATEGIES

__all__ = [
    "OPS",
    "WRITE_OPS",
    "QueryRequest",
    "WriteRequest",
    "WriteResult",
    "result_to_wire",
    "wire_to_result",
]

#: Query operations the serving tier accepts.
OPS = ("exact-match", "knn")

#: Write operations (dispatched through ``extra_ops``, not the query
#: planner — a write has no plan key and is never cached).
WRITE_OPS = ("write", "write-batch")


@dataclass
class QueryRequest:
    """One query to serve: the series plus its execution plan."""

    series: np.ndarray
    op: str = "knn"
    strategy: str = "target-node"
    k: int = 10
    pth: int | None = None
    use_bloom: bool = True
    #: Total latency budget in milliseconds (queue wait included); the
    #: batcher cancels the request if it expires before execution.  Not
    #: part of plan_key/cache_key — a deadline changes *when* work is
    #: abandoned, never the answer.
    deadline_ms: float | None = None
    #: Remote trace context (``repro.tracectx/v1`` carrier extracted by
    #: the server): when set, the service roots this request's span tree
    #: under the caller's trace instead of minting a fresh one.  Like
    #: the deadline, it is identity-irrelevant — never part of
    #: plan_key/cache_key.
    trace_ctx: "object | None" = field(default=None, compare=False)
    _digest: str = field(default="", repr=False, compare=False)

    def __post_init__(self) -> None:
        self.series = np.ascontiguousarray(self.series, dtype=np.float64)
        if self.series.ndim != 1:
            raise ValueError("query series must be one-dimensional")
        if self.op not in OPS:
            raise ValueError(f"unknown op {self.op!r}; choose from {OPS}")
        if self.deadline_ms is not None:
            self.deadline_ms = float(self.deadline_ms)
            if self.deadline_ms <= 0:
                raise ValueError("deadline_ms must be positive")
        if self.op == "knn":
            if self.strategy not in KNN_STRATEGIES:
                raise ValueError(
                    f"unknown strategy {self.strategy!r}; choose from "
                    f"{sorted(KNN_STRATEGIES)}"
                )
            if self.k <= 0:
                raise ValueError("k must be positive")
            if self.pth is not None and self.pth < 1:
                raise ValueError("pth must be a positive partition count")

    def plan_key(self) -> tuple:
        """Hashable identity of the execution plan (not the series).

        Exact-match varies only on the Bloom toggle; kNN varies on
        ``(strategy, k)`` and — for Multi-Partitions Access — ``pth``.
        """
        if self.op == "exact-match":
            return ("exact-match", self.use_bloom)
        pth = self.pth if self.strategy == "multi-partitions" else None
        return ("knn", self.strategy, self.k, pth)

    def digest(self) -> str:
        """Content digest of the series bytes (dtype/shape canonicalized)."""
        if not self._digest:
            self._digest = hashlib.blake2b(
                self.series.tobytes(), digest_size=16
            ).hexdigest()
        return self._digest

    def cache_key(self) -> tuple:
        """Result-cache identity: series content *and* plan."""
        return (self.digest(), len(self.series)) + self.plan_key()


@dataclass
class WriteRequest:
    """One batched append to serve: ``(n, length)`` series to insert.

    Writes ride the same admission queue, deadline budget, and batcher
    thread as queries — which is what makes them safe: the batcher
    applies them between read windows, so a query never observes a
    half-applied insert.  ``record_ids``, when given, pin the ids
    (router fan-out and WAL replay need identical ids on every replica);
    otherwise the index assigns them at apply time.
    """

    batch: np.ndarray
    record_ids: list | None = None
    deadline_ms: float | None = None
    op: str = field(default="write", init=False)
    trace_ctx: "object | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        self.batch = np.ascontiguousarray(self.batch, dtype=np.float64)
        if self.batch.ndim == 1:
            self.batch = self.batch[np.newaxis, :]
        if self.batch.ndim != 2 or self.batch.shape[0] == 0:
            raise ValueError("write batch must be a non-empty 2-D matrix")
        if self.record_ids is not None:
            self.record_ids = [int(rid) for rid in self.record_ids]
            if len(self.record_ids) != self.batch.shape[0]:
                raise ValueError(
                    f"{len(self.record_ids)} record ids for "
                    f"{self.batch.shape[0]} series"
                )
            if len(set(self.record_ids)) != len(self.record_ids):
                raise ValueError("record ids must be unique")
        if self.deadline_ms is not None:
            self.deadline_ms = float(self.deadline_ms)
            if self.deadline_ms <= 0:
                raise ValueError("deadline_ms must be positive")


@dataclass
class WriteResult:
    """Acknowledgement of an applied write batch.

    ``durable`` is True when the batch reached the write-ahead log
    before the in-memory apply — the replay guarantee of
    docs/ROBUSTNESS.md.  ``regions_added`` maps partition id to the new
    coarse region prefixes its synopsis gained (the router uses it to
    update its own synopses in place).
    """

    record_ids: list
    partition_ids: list
    durable: bool = False
    regions_added: dict = field(default_factory=dict)

    @property
    def acknowledged(self) -> int:
        return len(self.record_ids)

    def to_wire(self) -> dict:
        return {
            "op": "write",
            "record_ids": [int(r) for r in self.record_ids],
            "partition_ids": [int(p) for p in self.partition_ids],
            "durable": bool(self.durable),
            "regions_added": {
                str(pid): list(prefixes)
                for pid, prefixes in self.regions_added.items()
            },
        }

    @classmethod
    def from_wire(cls, doc: dict) -> "WriteResult":
        return cls(
            record_ids=[int(r) for r in doc.get("record_ids", [])],
            partition_ids=[int(p) for p in doc.get("partition_ids", [])],
            durable=bool(doc.get("durable", False)),
            regions_added={
                int(pid): list(prefixes)
                for pid, prefixes in doc.get("regions_added", {}).items()
            },
        )


def result_to_wire(result) -> dict:
    """Flatten a core query result into a JSON-safe response payload.

    Python's ``json`` round-trips floats through ``repr`` exactly, so the
    distances a remote client sees are bit-identical to the local answer
    (tests/serving/test_server.py relies on this).
    """
    from ..core.queries import ExactMatchResult

    if isinstance(result, ExactMatchResult):
        return {
            "op": "exact-match",
            "found": result.found,
            "record_ids": list(result.record_ids),
            "bloom_rejected": result.bloom_rejected,
            "partitions_loaded": result.partitions_loaded,
            "partition_ids_loaded": list(result.partition_ids_loaded),
            "nodes_visited": result.nodes_visited,
        }
    return {
        "op": "knn",
        "strategy": result.strategy,
        "record_ids": list(result.record_ids),
        "distances": [float(d) for d in result.distances],
        "partitions_loaded": result.partitions_loaded,
        "partition_ids_loaded": list(result.partition_ids_loaded),
        "candidates_examined": result.candidates_examined,
        "rows_refined": result.rows_refined,
        "rows_scored": result.rows_scored,
        "nodes_visited": result.nodes_visited,
        "nodes_pruned": result.nodes_pruned,
        "degraded": bool(getattr(result, "degraded", False)),
        "missing_partitions": list(getattr(result, "missing_partitions", [])),
    }


def wire_to_result(doc: dict):
    """Rebuild a core query result object from its wire payload.

    The inverse of :func:`result_to_wire` — used by the sharded router
    to turn a shard's reply back into the object a single-process
    :class:`~repro.serving.service.QueryService` future would resolve
    to.  Floats round-trip exactly, so a re-serialized answer stays
    bit-identical.
    """
    from ..core.queries import ExactMatchResult, KnnResult, Neighbor

    if doc.get("op") == "exact-match":
        return ExactMatchResult(
            record_ids=list(doc.get("record_ids", [])),
            bloom_rejected=bool(doc.get("bloom_rejected", False)),
            partitions_loaded=int(doc.get("partitions_loaded", 0)),
            partition_ids_loaded=list(doc.get("partition_ids_loaded", [])),
            nodes_visited=int(doc.get("nodes_visited", 0)),
        )
    return KnnResult(
        neighbors=[
            Neighbor(float(d), int(r))
            for d, r in zip(doc.get("distances", []), doc.get("record_ids", []))
        ],
        partitions_loaded=int(doc.get("partitions_loaded", 0)),
        candidates_examined=int(doc.get("candidates_examined", 0)),
        rows_refined=int(doc.get("rows_refined", 0)),
        rows_scored=int(doc.get("rows_scored", 0)),
        strategy=doc.get("strategy", ""),
        partition_ids_loaded=list(doc.get("partition_ids_loaded", [])),
        nodes_visited=int(doc.get("nodes_visited", 0)),
        nodes_pruned=int(doc.get("nodes_pruned", 0)),
        degraded=bool(doc.get("degraded", False)),
        missing_partitions=list(doc.get("missing_partitions", [])),
    )
