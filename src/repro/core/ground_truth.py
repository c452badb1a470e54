"""Ground truth for kNN evaluation (paper §VI-C.2).

Two implementations:

* :func:`brute_force_knn` — the exact answer by full scan.  Infeasible at
  the paper's billion scale but fine at ours; used as the reference truth
  for recall / error-ratio metrics.
* :func:`pruned_ground_truth` — the paper's method: use the iSAX-T lower
  bound with a fixed threshold (7.5 in the paper) to filter partitions via
  Tardis-G and nodes via Tardis-L, then answer exactly from the residual
  candidates, requiring at least ``k`` of them.  Kept to reproduce (and
  test) the paper's methodology; it equals brute force whenever the
  threshold exceeds the true k-th distance.
"""

from __future__ import annotations

import numpy as np

from ..tsdb.distance import batch_euclidean
from ..tsdb.series import TimeSeriesDataset
from .builder import TardisIndex
from .queries import Neighbor, query_signature

__all__ = ["brute_force_knn", "pruned_ground_truth", "GroundTruthError"]


class GroundTruthError(RuntimeError):
    """Raised when the pruned method cannot certify ``k`` candidates."""


def brute_force_knn(
    dataset: TimeSeriesDataset, query: np.ndarray, k: int
) -> list[Neighbor]:
    """Exact kNN by scanning the whole dataset."""
    if k <= 0:
        raise ValueError("k must be positive")
    distances = batch_euclidean(np.asarray(query, dtype=np.float64), dataset.values)
    rids = np.asarray(dataset.record_ids)
    order = np.lexsort((rids, distances))[:k]
    return [
        Neighbor(float(distances[i]), int(rids[i])) for i in order
    ]


def pruned_ground_truth(
    index: TardisIndex,
    query: np.ndarray,
    k: int,
    threshold: float = 7.5,
) -> list[Neighbor]:
    """The paper's lower-bound-pruned exact kNN.

    Partitions whose every Tardis-G leaf has MINDIST > ``threshold`` are
    skipped; within surviving partitions, Tardis-L subtrees are pruned the
    same way.  If fewer than ``k`` candidates survive, the threshold was
    too tight and :class:`GroundTruthError` is raised (the paper picks a
    threshold large enough that this does not happen).

    Correctness: the MINDIST lower bound guarantees every pruned series is
    farther than ``threshold``; therefore when ≥ k candidates survive *and*
    the k-th candidate distance ≤ ``threshold``, the result is exact.
    """
    if not index.clustered:
        raise RuntimeError("pruned ground truth needs a clustered index")
    _signature, paa = query_signature(index, query)
    # Partition filter: the paper filters partitions with the Tardis-G
    # lower bound, but with a *sampled* global tree that is unsound for
    # records fallback-routed into partitions their leaf regions do not
    # cover; the per-partition region synopsis gives the sound equivalent
    # (see EXPERIMENTS.md methodology notes).
    per_partition_distances = []
    per_partition_rids = []
    n_candidates = 0
    for pid, bound in sorted(index.region_bounds(paa).items()):
        if bound > threshold:
            continue
        partition = index.partitions[pid]
        rows = partition.pruned_entries(paa, threshold, index.series_length)
        if not len(rows):
            continue
        n_candidates += len(rows)
        per_partition_distances.append(
            batch_euclidean(
                np.asarray(query, dtype=np.float64),
                partition.block.values[rows],
            )
        )
        per_partition_rids.append(partition.block.record_ids[rows])
    if n_candidates < k:
        raise GroundTruthError(
            f"only {n_candidates} candidates survive threshold {threshold}; "
            "raise the threshold"
        )
    distances = np.concatenate(per_partition_distances)
    rids = np.concatenate(per_partition_rids)
    order = np.lexsort((rids, distances))[:k]
    kth = float(distances[order[-1]])
    if kth > threshold:
        raise GroundTruthError(
            f"k-th candidate distance {kth:.3f} exceeds threshold {threshold}; "
            "result not certifiably exact — raise the threshold"
        )
    return [
        Neighbor(float(distances[i]), int(rids[i])) for i in order
    ]
