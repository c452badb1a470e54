"""Ground truth for kNN evaluation (paper §VI-C.2).

Two implementations:

* :func:`brute_force_knn` — the exact answer by full scan.  Infeasible at
  the paper's billion scale but fine at ours; used as the reference truth
  for recall / error-ratio metrics.
* :func:`pruned_ground_truth` — the paper's method: use the iSAX-T lower
  bound with a fixed threshold (7.5 in the paper) to filter partitions,
  then nodes and rows via Tardis-L, and answer exactly from the residual
  candidates, requiring at least ``k`` of them within the threshold.
  Kept to reproduce (and test) the paper's methodology; it equals brute
  force whenever the threshold reaches the true k-th distance.
"""

from __future__ import annotations

import numpy as np

from ..tsdb.distance import batch_euclidean
from ..tsdb.series import TimeSeriesDataset
from .builder import TardisIndex
from .exact_search import _bound_ordered_walk
from .queries import Neighbor

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

    Partitions, Tardis-L subtrees and rows whose MINDIST is above
    ``threshold`` are skipped, so every skipped series is farther than
    ``threshold`` and, when at least ``k`` series are within it, the
    nearest ``k`` of them are exact.  With fewer the threshold was too
    tight and :class:`GroundTruthError` is raised (the paper picks a
    threshold large enough that this does not happen).  This is
    :func:`~repro.core.exact_search.knn_exact`'s walk started at
    ``threshold`` instead of +inf: tightening below it as answers arrive
    drops nothing that could be among the ``k``, and partitions are
    filtered by their region synopses, the sound form of the paper's
    Tardis-G filter under a *sampled* global tree.
    """
    if not index.clustered:
        raise RuntimeError("pruned ground truth needs a clustered index")
    within = _bound_ordered_walk(
        index, query, "pruned-ground-truth", threshold, k
    ).neighbors
    if len(within) < k:
        raise GroundTruthError(
            f"only {len(within)} candidates survive threshold {threshold}; "
            "raise the threshold"
        )
    return within
