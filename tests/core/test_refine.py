"""Property tests for the one refine per query (``RunningTopK``).

Every kNN body hands the rows that passed the node filter and the row
bound to one running top-k, which scores partitions in ascending bound
order, cuts rows above the running k-th and stops at the first
partition whose smallest bound is above it.  The promise is exactness:
the answer is the one the per-partition top-k lists merged by
``merge_top_k`` give — the scan this refine replaced, kept here as the
reference — and the brute-force one, ids and floats, whatever order the
partitions arrive in.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.local_index import _ROW_BOUND_SLACK
from repro.core.queries import Candidates, Neighbor, RunningTopK, merge_top_k
from repro.tsdb.distance import batch_euclidean

LENGTH = 4


def partition(pid, values, record_ids):
    """The slice of a ``LocalPartition`` the refine reads."""
    block = SimpleNamespace(
        values=np.asarray(values, dtype=np.float64).reshape(-1, LENGTH),
        record_ids=np.asarray(record_ids, dtype=np.int64),
    )
    return SimpleNamespace(partition_id=pid, block=block)


def ranked(query, part, rows, k):
    """Every row scored, ``(distance, id)`` order, the first ``k``."""
    block = part.block
    distances = batch_euclidean(query, block.values[rows])
    ids = block.record_ids[rows]
    order = np.lexsort((ids, distances))[:k]
    return [
        Neighbor(d, r)
        for d, r in zip(distances[order].tolist(), ids[order].tolist())
    ]


def seeded(query, seed, k):
    top = RunningTopK(k)
    top.score(query, seed, np.arange(len(seed.block.record_ids)))
    return top


# Small integer values: many rows at exactly equal distances.
rows_of = st.lists(
    st.lists(st.integers(-2, 2), min_size=LENGTH, max_size=LENGTH),
    max_size=8,
)


@st.composite
def blocks(draw, pid):
    values = draw(rows_of)
    ids = draw(st.lists(
        st.integers(0, 15), min_size=len(values), max_size=len(values),
        unique=True,
    ))
    # A valid row bound is at most the true distance; 1.0 puts it AT
    # the distance, the tie the slack exists for.
    shrink = draw(st.lists(
        st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        min_size=len(values), max_size=len(values),
    ))
    return partition(pid, values, ids), np.array(shrink)


@given(
    query=st.lists(st.integers(-1, 1), min_size=LENGTH, max_size=LENGTH),
    seed=blocks(99),
    parts=st.lists(st.integers(0, 50), min_size=1, max_size=4, unique=True)
    .flatmap(lambda pids: st.tuples(*[blocks(pid) for pid in pids])),
    k=st.integers(1, 20),
    priced=st.booleans(),
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=300, deadline=None)
def test_refine_is_the_merged_scan_and_brute_force(
    query, seed, parts, k, priced, order
):
    """Exact ties, a record id in several partitions, ``k`` above and
    below the row count, rows priced under the seed's (finite) threshold
    or unpriced under +inf: the running top-k's answer is the parent's
    merge of per-partition top-ks and brute force's, in any visit
    order, and it scores no row the row bound dropped."""
    query = np.asarray(query, dtype=np.float64)
    seed, _ = seed
    top = seeded(query, seed, k)
    threshold = top.kth
    found, refined = [], 0
    for part, shrink in parts:
        rows = np.arange(len(part.block.record_ids))
        bounds = batch_euclidean(query, part.block.values) * shrink
        if priced and threshold < np.inf:
            # rows_within: keep a row unless its bound clears the
            # threshold by more than rounding can.
            keep = bounds <= threshold * (1.0 + _ROW_BOUND_SLACK)
            rows, bounds = rows[keep], bounds[keep]
        elif not priced:
            bounds = None
        refined += len(rows)
        if len(rows):
            found.append(Candidates(part, rows, bounds))

    everything = [seed] + [part for part, _ in parts]
    brute = merge_top_k(
        [ranked(query, p, np.arange(len(p.block.record_ids)), len(
            p.block.record_ids)) for p in everything], k,
    )
    parent = merge_top_k(
        [top.neighbors()]
        + [ranked(query, c.partition, c.rows, k) for c in found], k,
    )
    top.refine(query, found)
    assert top.neighbors() == parent == brute
    assert top.scored <= len(seed.block.record_ids) + refined

    # One partition per call, shuffled: another visit order.
    shuffled = seeded(query, seed, k)
    order.shuffle(found)
    for entry in found:
        shuffled.refine(query, [entry])
    assert shuffled.neighbors() == brute


def test_the_refine_stops_at_a_partition_above_the_kth():
    """A partition whose smallest bound is above the k-th distance is
    never gathered, nor is any partition after it in bound order."""
    query = np.zeros(LENGTH)
    seed = partition(0, [[1, 0, 0, 0], [2, 0, 0, 0]], [7, 8])
    top = seeded(query, seed, 2)
    assert top.kth == 2.0
    near = partition(1, [[0, 1, 0, 0], [3, 0, 0, 0]], [1, 2])
    far = partition(2, [[3, 0, 0, 0]], [3])
    farther = partition(3, [[4, 0, 0, 0]], [4])
    top.refine(query, [
        Candidates(farther, np.array([0]), np.array([3.5])),
        Candidates(far, np.array([0]), np.array([2.5])),
        Candidates(near, np.array([0, 1]), np.array([1.0, 2.5])),
    ])
    # seed 2 + near's first row; near's second row is cut, far and
    # farther are never reached
    assert top.scored == 3
    assert top.neighbors() == [Neighbor(1.0, 1), Neighbor(1.0, 7)]


def test_a_row_at_the_kth_with_a_smaller_id_is_scored():
    """A bound equal to the k-th distance must not stop the refine: the
    row may sit exactly at the k-th distance with a smaller id, and then
    it takes the k-th place."""
    query = np.zeros(LENGTH)
    seed = partition(0, [[1, 0, 0, 0], [0, 2, 0, 0]], [5, 10])
    top = seeded(query, seed, 2)
    assert top.neighbors() == [Neighbor(1.0, 5), Neighbor(2.0, 10)]
    tie = partition(1, [[0, 0, 2, 0]], [3])
    top.refine(query, [Candidates(tie, np.array([0]), np.array([2.0]))])
    assert top.scored == 3
    assert top.neighbors() == [Neighbor(1.0, 5), Neighbor(2.0, 3)]


def test_one_entry_per_record_id():
    """A record id in two partitions is held once, at its nearest
    distance, so the k-th is the k-th *distinct* id."""
    query = np.zeros(LENGTH)
    top = RunningTopK(2)
    top.score(query, partition(0, [[3, 0, 0, 0], [1, 0, 0, 0]], [4, 9]),
              np.array([0, 1]))
    top.score(query, partition(1, [[0, 1, 0, 0], [0, 2, 0, 0]], [4, 6]),
              np.array([0, 1]))
    assert top.neighbors() == [Neighbor(1.0, 4), Neighbor(1.0, 9)]
    assert top.kth == 1.0


def test_without_k_every_row_is_kept():
    """``k=None`` (the range query) keeps duplicates and never cuts."""
    query = np.zeros(LENGTH)
    top = RunningTopK(None)
    top.refine(query, [
        Candidates(partition(0, [[2, 0, 0, 0]], [1]), np.array([0]),
                   np.array([2.0])),
        Candidates(partition(1, [[1, 0, 0, 0], [2, 0, 0, 0]], [1, 2]),
                   np.array([0, 1]), None),
    ])
    assert top.kth == np.inf and top.scored == 3
    assert top.neighbors() == [
        Neighbor(1.0, 1), Neighbor(2.0, 1), Neighbor(2.0, 2),
    ]
