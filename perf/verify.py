"""The correctness oracle every workload calls once its timing is done.

Three kinds of check, all counted into ``attempted`` / ``failed``:

* cheap per-operation checks inside the timed loops (:func:`knn_ok`,
  :func:`exact_ok`): the reply is complete, ordered, not degraded, and an
  exact-match probe found exactly the record it must (or nothing);
* path equivalence on the fixed verification queries: the answers a
  workload's own path gives (service, TCP, router, replayed WAL) have the
  same digest as the direct library call on the same index;
* independent ground truth: brute-force 10-NN over the raw arrays, which
  gives ``recall_at_10`` and does not depend on any code under test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

K = 10


# -- normalising replies ------------------------------------------------------


def knn_answer(result) -> tuple:
    """``(record_ids, distances)`` of a ``KnnResult`` or its wire form."""
    if isinstance(result, dict):
        return tuple(result["record_ids"]), tuple(result["distances"])
    return tuple(result.record_ids), tuple(result.distances)


def knn_ok(result, k: int = K) -> bool:
    """A timed kNN reply is non-empty, ordered, duplicate-free, not degraded.

    At most ``k`` rather than exactly ``k``: target-node access answers from
    one sigTree node, and after inserts the program now and then picks a
    node that holds ``k - 1`` rows (perf/README.md, "Findings").
    """
    ids, distances = knn_answer(result)
    degraded = (
        result.get("degraded", False) if isinstance(result, dict)
        else result.degraded
    )
    ordered = all(a <= b for a, b in zip(distances, distances[1:]))
    return 0 < len(ids) <= k and len(set(ids)) == len(ids) and ordered and not degraded


def exact_ok(result, expected: int) -> bool:
    """An exact-match reply found ``expected`` (``-1``: must find nothing)."""
    ids = result["record_ids"] if isinstance(result, dict) else result.record_ids
    if expected < 0:
        return len(ids) == 0
    return int(expected) in ids


def digest(answers) -> str:
    """sha256 over ``(record_ids, distances @ 6 dp)`` of a list of answers."""
    h = hashlib.sha256()
    for ids, distances in answers:
        h.update(repr((tuple(int(i) for i in ids),
                       tuple(round(float(d), 6) for d in distances))).encode())
    return h.hexdigest()


# -- ground truth -------------------------------------------------------------


def ground_truth(
    data: np.ndarray, record_ids: np.ndarray, queries: np.ndarray, k: int = K
) -> list:
    """Exact ``k`` nearest record ids per query, ``(distance, id)`` order.

    A matrix product shortlists ``4k`` rows per query; the shortlist is
    re-ranked with the exact difference so rounding in the expansion
    ``|x|² + |q|² − 2x·q`` cannot reorder the result.
    """
    norms = np.einsum("ij,ij->i", data, data)
    truth = []
    for start in range(0, len(queries), 64):
        block = queries[start:start + 64]
        approx = norms[None, :] - 2.0 * (block @ data.T)
        short = np.argpartition(approx, 4 * k, axis=1)[:, :4 * k]
        for query, rows in zip(block, short):
            diff = data[rows] - query
            exact = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            ids = record_ids[rows]
            order = np.lexsort((ids, exact))[:k]
            truth.append(ids[order])
    return truth


def recall(answers, truth, k: int = K) -> float:
    """Mean share of the true ``k`` nearest that the answers contain."""
    hits = [
        len(set(ids) & set(int(t) for t in true)) / k
        for (ids, _distances), true in zip(answers, truth)
    ]
    return float(np.mean(hits))


# -- tally --------------------------------------------------------------------


@dataclass
class Tally:
    """Attempted / failed operations and checks of one run."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def add(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(f"{note}: {failed}/{attempted} failed")

    def check(self, ok: bool, note: str) -> None:
        self.add(1, 0 if ok else 1, note)

    def same_answers(self, got, want, note: str) -> None:
        """One check per verification query: ``got[i] == want[i]`` @ 6 dp."""
        differing = [
            i for i, (g, w) in enumerate(zip(got, want)) if digest([g]) != digest([w])
        ]
        if differing:
            i = differing[0]
            note = f"{note} (first: query {i}: {got[i]} != {want[i]})"
        self.add(max(len(got), len(want)),
                 len(differing) + abs(len(got) - len(want)), note)
