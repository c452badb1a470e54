"""Exact similarity search over the TARDIS index.

The paper evaluates exact *match* and approximate kNN; the classic iSAX
index family also supports **exact kNN** and **range** queries through
the MINDIST lower bound.  Here they are the far end of the dial the
approximate strategies turn (target node → one partition → ``pth``
partitions): every partition that can still matter, through the same
:func:`~repro.core.queries.scan_partitions`.

* :func:`knn_exact` — partitions in ascending region-bound order, each
  scanned under the running k-th distance, until the next bound is
  above it.  Because MINDIST never exceeds the true distance, the result
  equals brute force — at a fraction of the data touched.
* :func:`range_query` — every series within ``radius`` of the query:
  the same walk with the threshold fixed at the radius.

Both report how many partitions were actually loaded, which the
exactness benchmark uses to show the index's pruning power.
"""

from __future__ import annotations

import logging

import numpy as np

from ..cluster.costmodel import timed_stage
from ..faults.errors import PartialResultError
from ..telemetry.spans import get_tracer
from ..tsdb.distance import GapTable
from .builder import TardisIndex
from .queries import (
    KnnResult,
    RunningTopK,
    _annotate_knn_span,
    _record_query_metrics,
    query_signature,
    scan_partitions,
)

__all__ = ["ExactSearchResult", "knn_exact", "range_query"]

logger = logging.getLogger(__name__)

#: Exact answers are kNN results (``strategy`` ``knn-exact`` / ``range``).
ExactSearchResult = KnnResult


def _bound_ordered_walk(
    index: TardisIndex,
    query: np.ndarray,
    strategy: str,
    threshold: float,
    k: int | None = None,
) -> KnnResult:
    """Scan partitions in ascending ``(region bound, pid)`` order until
    the next bound is strictly above the threshold.

    Every partition's rows go through one :class:`RunningTopK`.  With
    ``k`` the answer is the top-k within ``threshold`` and the threshold
    tightens to the running k-th distance after each partition; without,
    it stays put and every series within it is kept.  Either way nothing
    closer than the final threshold is skipped: an unvisited partition's
    bound, like a pruned node's or row's, is a lower bound on its
    distances.  The region synopses cover each partition's *actual*
    contents, fallback-routed records included, which the sampled
    Tardis-G leaf regions do not (EXPERIMENTS.md methodology notes);
    consulting them loads no partition.  A partition the walk needs and
    cannot load raises :class:`PartialResultError`.
    """
    result = KnnResult(neighbors=[], strategy=strategy)
    with timed_stage(result.ledger, "query/route"):
        signature, paa = query_signature(index, query)
        # One table per query: the partition order and every scan read it.
        gaps = GapTable(paa, index.config.cardinality_bits)
        order = sorted(
            (bound, pid) for pid, bound in index.region_bounds(gaps).items()
        )
    top = RunningTopK(k)
    for at, (bound, pid) in enumerate(order):
        if bound > threshold:
            result.nodes_pruned += len(order) - at
            break
        scan = scan_partitions(
            index, query, signature, gaps, k, [pid],
            threshold=threshold, ledger=result.ledger,
        )
        if scan.missing:
            raise PartialResultError(scan.missing, detail=strategy)
        result.partition_ids_loaded.append(pid)
        result.candidates_examined += scan.candidates
        result.rows_refined += scan.refined
        result.nodes_visited += 1 + scan.stats.visited
        result.nodes_pruned += scan.stats.pruned
        with timed_stage(result.ledger, "query/merge"):
            top.refine(query, scan.found)
        threshold = min(threshold, top.kth)
    result.partitions_loaded = len(result.partition_ids_loaded)
    result.rows_scored = top.scored
    with timed_stage(result.ledger, "query/merge"):
        # The row bound keeps a rounding slack; the answer does not.
        result.neighbors = [
            n for n in top.neighbors() if n.distance <= threshold
        ]
    return result


def knn_exact(index: TardisIndex, query: np.ndarray, k: int) -> KnnResult:
    """Exact k-nearest-neighbor search (equals brute force, provably).

    Partitions are visited in increasing MINDIST order and skipped once
    their bound exceeds the current k-th distance; within a loaded
    partition, Tardis-L nodes and then rows are pruned under the same
    rule.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if not index.clustered:
        raise RuntimeError("exact kNN needs a clustered index")
    with get_tracer().span("query/knn-exact", k=k) as span:
        result = _bound_ordered_walk(index, query, "knn-exact", np.inf, k)
        _annotate_knn_span(span, result, result.ledger)
    _record_query_metrics(result, result.ledger)
    logger.debug(
        "exact kNN: %d/%d partitions loaded, %d candidates",
        result.partitions_loaded, len(index.partitions),
        result.candidates_examined,
    )
    return result


def range_query(
    index: TardisIndex, query: np.ndarray, radius: float
) -> KnnResult:
    """All series within Euclidean ``radius`` of the query (exact).

    Partitions, subtrees and rows whose MINDIST exceeds the radius are
    pruned; the lower-bound property guarantees completeness.  Results
    are sorted by distance.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if not index.clustered:
        raise RuntimeError("range queries need a clustered index")
    with get_tracer().span("query/range", radius=radius) as span:
        result = _bound_ordered_walk(index, query, "range", radius)
        span.set("n_results", len(result.neighbors))
        _annotate_knn_span(span, result, result.ledger)
    _record_query_metrics(result, result.ledger)
    return result
