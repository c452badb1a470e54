"""``gather_euclidean`` is ``batch_euclidean`` over a gather, bit for bit.

The refine scores block rows with one ``take`` and an in-place
subtraction instead of a fancy-index copy plus ``candidates - query``.
The two forms must give the same float64 bits for every row set the
query path hands in — empty, single, repeated, the frozen arrays
``entries_under`` caches, and a ``values`` view that is the prefix of a
grown :class:`~repro.core.columnar.ColumnarBlock` buffer — and must be
recorded as the same ``euclidean`` kernel work.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import ColumnarBlock
from repro.telemetry.perf import (
    KERNELS,
    disable_kernel_counters,
    enable_kernel_counters,
)
from repro.tsdb.distance import batch_euclidean, gather_euclidean

LENGTH = 16


def assert_same_bits(query, values, rows):
    gathered = gather_euclidean(query, values, rows)
    reference = batch_euclidean(query, values[rows])
    assert gathered.dtype == reference.dtype == np.float64
    assert gathered.shape == reference.shape == (len(rows),)
    assert gathered.tobytes() == reference.tobytes()


@st.composite
def matrix_query_rows(draw):
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 1e3])),
                        size=(n, LENGTH))
    query = rng.normal(size=LENGTH)
    rows = np.asarray(
        draw(st.lists(st.integers(0, n - 1), max_size=60)), dtype=np.int64
    )
    return values, query, rows


@settings(max_examples=200, deadline=None)
@given(matrix_query_rows())
def test_gather_equals_fancy_index(case):
    values, query, rows = case
    assert_same_bits(query, values, rows)


def test_empty_single_and_repeated_rows():
    rng = np.random.default_rng(7)
    values, query = rng.normal(size=(9, LENGTH)), rng.normal(size=LENGTH)
    for rows in ([], [4], [3, 3, 3], [8, 0, 8, 1]):
        assert_same_bits(query, values, np.asarray(rows, dtype=np.int64))
    assert gather_euclidean(query, values, np.empty(0, np.int64)).size == 0


def test_frozen_rows_from_entries_under(tardis_small, heldout_queries):
    query = heldout_queries[0]
    for partition in tardis_small.partitions.values():
        rows = partition.entries_under(partition.tree.root)
        assert not rows.flags.writeable
        assert_same_bits(query, partition.block.values, rows)


def grown_block(batches, rng) -> ColumnarBlock:
    block = ColumnarBlock.empty(word_length=4, series_length=LENGTH)
    for m in batches:
        block.append_rows(
            ["0"] * m, rng.integers(0, 10**6, size=m),
            rng.normal(size=(m, LENGTH)),
            np.zeros((m, 4), dtype=np.uint32),
        )
    return block


def test_a_grown_block_publishes_a_prefix_view():
    block = grown_block([1, 1, 1], np.random.default_rng(3))
    assert len(block._buffers["values"]) > block.n_rows == 3
    assert block.values.base is block._buffers["values"]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(1, 7), min_size=2, max_size=8),
    st.integers(0, 2**32 - 1),
)
def test_prefix_view_of_a_grown_block(batches, seed):
    rng = np.random.default_rng(seed)
    block = grown_block(batches, rng)
    rows = rng.integers(0, block.n_rows, size=rng.integers(0, 30))
    assert_same_bits(rng.normal(size=LENGTH), block.values, rows)


def test_recorded_as_the_same_euclidean_kernel():
    rng = np.random.default_rng(11)
    values, query = rng.normal(size=(20, LENGTH)), rng.normal(size=LENGTH)
    rows = np.array([5, 1, 5, 19, 0])
    totals = []
    for score in (
        lambda: batch_euclidean(query, values[rows]),
        lambda: gather_euclidean(query, values, rows),
    ):
        enable_kernel_counters(reset=True)
        try:
            score()
            score()
        finally:
            disable_kernel_counters()
        kernel = KERNELS.totals()["euclidean"]
        totals.append((kernel["calls"], kernel["elements"]))
    KERNELS.reset()
    assert totals[0] == totals[1] == (2, 2 * len(rows) * LENGTH)
