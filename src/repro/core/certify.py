"""Answer certification: proving a prefix of an approximate result exact.

Approximate kNN (paper §V-B) reports results with no quality statement —
the evaluation measures recall offline against ground truth.  But the
index can *prove* part of its own answer at query time:

* every unloaded partition's region synopsis lower-bounds the distance to
  anything stored there; let ``B`` be the minimum such bound;
* within loaded partitions, One-Partition and Multi-Partitions Access
  scan everything whose MINDIST does not exceed their pruning threshold,
  and that threshold is at least the final k-th answer distance — so no
  unexamined series in a loaded partition can beat any returned answer.

Therefore every returned answer with distance strictly below ``B`` is a
*true* nearest neighbor, in order: if ``m`` answers clear the bar, the
first ``m`` answers are exactly the true ``m``-NN.  When the strategy
loaded every partition, the whole answer is certified (``m = k``).

Target Node Access results are **not** certifiable this way — TNA leaves
the rest of its home partition unexamined and unbounded — so
:func:`certified_prefix` rejects them.
"""

from __future__ import annotations

import numpy as np

from .builder import TardisIndex
from .queries import KnnResult, query_signature

__all__ = ["certified_prefix"]

#: Distance slack guarding against float round-off at the bound.
_EPSILON = 1e-9


def certified_prefix(
    index: TardisIndex, query: np.ndarray, result: KnnResult
) -> int:
    """How many leading answers of ``result`` are provably exact.

    ``result`` must come from One-Partition or Multi-Partitions Access on
    ``index`` for the same ``query`` (those strategies record the loaded
    partitions and scan them exhaustively under their threshold).  Returns
    ``m``: the first ``m`` answers equal the true ``m``-NN.
    """
    if result.strategy not in ("one-partition", "multi-partitions"):
        raise ValueError(
            f"cannot certify a {result.strategy or 'foreign'!s} result: "
            "certification needs One-Partition or Multi-Partitions Access "
            "(Target Node Access leaves its home partition unbounded)"
        )
    if not result.partition_ids_loaded:
        raise ValueError("result carries no loaded-partition ids")
    _signature, paa = query_signature(index, query)
    loaded = set(result.partition_ids_loaded)
    unseen_bound = min(
        (
            bound for pid, bound in index.region_bounds(paa).items()
            if pid not in loaded
        ),
        default=np.inf,
    )
    certified = 0
    for neighbor in result.neighbors:
        if neighbor.distance < unseen_bound - _EPSILON:
            certified += 1
        else:
            break
    return certified
