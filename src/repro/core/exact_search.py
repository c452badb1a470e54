"""Exact similarity search over the TARDIS index.

The paper evaluates exact *match* and approximate kNN; the classic iSAX
index family also supports **exact kNN** and **range** queries via
best-first traversal with the MINDIST lower bound, and the TARDIS
structures make both natural:

* :func:`knn_exact` — best-first search: a priority queue orders Tardis-G
  leaves (→ partitions) and Tardis-L subtrees by MINDIST; a node is only
  expanded while its bound beats the current k-th distance.  Because
  MINDIST never exceeds the true distance, the result equals brute force
  — at a fraction of the data touched (partitions are loaded lazily).
* :func:`range_query` — every series within ``radius`` of the query;
  subtrees whose MINDIST exceeds the radius are pruned wholesale.

Both report how many partitions were actually loaded, which the exactness
benchmark uses to show the index's pruning power.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from ..cluster import SimulationLedger
from ..cluster.costmodel import timed_stage
from ..telemetry.spans import get_tracer
from ..tsdb.distance import batch_euclidean
from .builder import TardisIndex
from .local_index import LocalPartition, ScanStats, node_mindist
from .queries import Neighbor, _record_query_metrics, query_signature
from .sigtree import SigTreeNode

__all__ = ["ExactSearchResult", "knn_exact", "range_query"]

logger = logging.getLogger(__name__)


@dataclass
class ExactSearchResult:
    """Exact-search answer plus pruning statistics."""

    neighbors: list[Neighbor]
    partitions_loaded: int = 0
    candidates_examined: int = 0
    nodes_pruned: int = 0
    #: Partitions + sigTree nodes expanded (not pruned) during the search.
    nodes_visited: int = 0
    #: Which algorithm produced this result (``knn-exact`` / ``range``).
    strategy: str = ""
    #: Ids of the partitions actually loaded, in visit order.
    partition_ids_loaded: list[int] = field(default_factory=list)
    ledger: SimulationLedger = field(default_factory=SimulationLedger)

    @property
    def record_ids(self) -> list[int]:
        return [n.record_id for n in self.neighbors]

    @property
    def distances(self) -> list[float]:
        return [n.distance for n in self.neighbors]

    @property
    def simulated_seconds(self) -> float:
        return self.ledger.clock_s


def _rank_entries(
    query: np.ndarray, partition: LocalPartition, rows, k_heap: list, k: int
) -> int:
    """Fold block rows into the max-heap of current best k; returns count.

    Heap items are ``(-distance, -record_id)``: the root is the worst
    kept neighbor, and among equal distances the *largest* record id is
    evicted first, so the surviving set (and thus the final answer)
    breaks ties by ascending record id like every other strategy.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return 0
    block = partition.block
    distances = batch_euclidean(
        np.asarray(query, dtype=np.float64), block.values[rows]
    )
    rids = block.record_ids[rows]
    for dist, rid in zip(distances, rids):
        item = (-float(dist), -int(rid))
        if len(k_heap) < k:
            heapq.heappush(k_heap, item)
        elif item > k_heap[0]:  # beats the current worst (distance, then id)
            heapq.heapreplace(k_heap, item)
    return int(rows.size)


def knn_exact(index: TardisIndex, query: np.ndarray, k: int) -> ExactSearchResult:
    """Exact k-nearest-neighbor search (equals brute force, provably).

    Two-level best-first: partitions are visited in increasing MINDIST
    order and skipped once their bound exceeds the current k-th distance;
    within a loaded partition, Tardis-L subtrees are expanded best-first
    under the same rule.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if not index.clustered:
        raise RuntimeError("exact kNN needs a clustered index")
    result = ExactSearchResult(neighbors=[], strategy="knn-exact")
    counter = itertools.count()
    with get_tracer().span("query/knn-exact", k=k) as span:
        with timed_stage(result.ledger, "query/route"):
            _signature, paa = query_signature(index, query)
            # Region synopses cover each partition's *actual* contents,
            # fallback-routed records included, which the sampled
            # Tardis-G leaf regions do not (EXPERIMENTS.md methodology
            # notes); consulting them loads no partition.
            partition_queue = sorted(
                (bound, pid)
                for pid, bound in index.region_bounds(paa).items()
            )
        k_heap: list[tuple[float, int]] = []  # (-distance, -record_id)

        def kth_distance() -> float:
            if len(k_heap) < k:
                return np.inf
            return -k_heap[0][0]

        for bound, pid in partition_queue:
            if bound > kth_distance():
                result.nodes_pruned += 1
                continue
            partition = index.load_partition(pid, ledger=result.ledger)
            result.partitions_loaded += 1
            result.partition_ids_loaded.append(pid)
            result.nodes_visited += 1
            with timed_stage(result.ledger, "query/local search"):
                result.candidates_examined += _search_partition(
                    index, partition, query, paa, k, k_heap, result, counter
                )
        ordered = sorted((-d, -negated_rid) for d, negated_rid in k_heap)
        result.neighbors = [Neighbor(dist, rid) for dist, rid in ordered]
        _annotate_exact_span(span, result)
    _record_query_metrics(result, result.ledger)
    logger.debug(
        "exact kNN: %d/%d partitions loaded, %d candidates",
        result.partitions_loaded, len(index.partitions),
        result.candidates_examined,
    )
    return result


def _annotate_exact_span(span, result: ExactSearchResult) -> None:
    """Copy an exact-search result's accounting onto its root span."""
    span.set("partitions_loaded", result.partitions_loaded)
    span.set("candidates_examined", result.candidates_examined)
    span.set("nodes_visited", result.nodes_visited)
    span.set("nodes_pruned", result.nodes_pruned)
    span.set("simulated_s", result.ledger.clock_s)


def _search_partition(
    index: TardisIndex,
    partition: LocalPartition,
    query: np.ndarray,
    paa: np.ndarray,
    k: int,
    k_heap: list,
    result: ExactSearchResult,
    counter,
) -> int:
    """Best-first expansion of one partition's Tardis-L."""
    examined = 0
    heap: list[tuple[float, int, SigTreeNode]] = []
    root = partition.tree.root
    heapq.heappush(heap, (0.0, next(counter), root))
    while heap:
        bound, _tie, node = heapq.heappop(heap)
        kth = -k_heap[0][0] if len(k_heap) >= k else np.inf
        if bound > kth:
            result.nodes_pruned += 1
            continue
        result.nodes_visited += 1
        if node.entries:
            examined += _rank_entries(query, partition, node.entries, k_heap, k)
        for child in node.children.values():
            child_bound = node_mindist(
                child, paa, index.series_length, index.config.word_length
            )
            heapq.heappush(heap, (child_bound, next(counter), child))
    return examined


def range_query(
    index: TardisIndex, query: np.ndarray, radius: float
) -> ExactSearchResult:
    """All series within Euclidean ``radius`` of the query (exact).

    Partitions and subtrees whose MINDIST exceeds the radius are pruned;
    the lower-bound property guarantees completeness.  Results are sorted
    by distance.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if not index.clustered:
        raise RuntimeError("range queries need a clustered index")
    result = ExactSearchResult(neighbors=[], strategy="range")
    with get_tracer().span("query/range", radius=radius) as span:
        with timed_stage(result.ledger, "query/route"):
            _signature, paa = query_signature(index, query)
        hits: list[Neighbor] = []
        bounds = index.region_bounds(paa)
        scan = ScanStats()
        for pid, partition in index.partitions.items():
            if bounds[pid] > radius:
                result.nodes_pruned += 1
                continue
            partition = index.load_partition(pid, ledger=result.ledger)
            result.partitions_loaded += 1
            result.partition_ids_loaded.append(pid)
            result.nodes_visited += 1
            with timed_stage(result.ledger, "query/local search"):
                survivors = partition.pruned_entries(
                    paa, radius, index.series_length, stats=scan
                )
                result.candidates_examined += len(survivors)
                if len(survivors):
                    block = partition.block
                    distances = batch_euclidean(
                        np.asarray(query, dtype=np.float64),
                        block.values[survivors],
                    )
                    rids = block.record_ids[survivors]
                    within = distances <= radius
                    hits.extend(
                        Neighbor(float(d), int(r))
                        for d, r in zip(distances[within], rids[within])
                    )
        result.nodes_visited += scan.visited
        result.nodes_pruned += scan.pruned
        hits.sort(key=lambda n: (n.distance, n.record_id))
        result.neighbors = hits
        span.set("n_results", len(hits))
        _annotate_exact_span(span, result)
    _record_query_metrics(result, result.ledger)
    return result
