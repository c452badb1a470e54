"""Property tests for the row bound (``LocalPartition.rows_within``).

Between the node filter and the distance pass every threshold-pruned
scan drops the rows whose own full-cardinality MINDIST is above the
threshold.  The promise is exactness: whenever ``k`` answers at or below
the threshold are already in the merge — the seed's top-k, whose k-th
distance *is* the threshold — the merged answer is the one an unfiltered
distance pass gives, ids and floats.  The unfiltered pass lives on here,
as the reference.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TardisConfig
from repro.core.builder import convert_records
from repro.core.isaxt import decode_signature, signature_of_paa
from repro.core.local_index import _ROW_BOUND_SLACK, build_local_partition
from repro.core.queries import Neighbor, _top_k, merge_top_k
from repro.telemetry.perf import (
    KERNELS,
    disable_kernel_counters,
    enable_kernel_counters,
)
from repro.tsdb import paa_transform, random_walk
from repro.tsdb.distance import (
    batch_euclidean,
    mindist_paa_to_word,
    mindist_paa_to_words,
)
from repro.tsdb.sax import breakpoints

LENGTH = 32


def merged_answer(partition, query, paa, k, threshold, seed_top, skip,
                  filtered):
    """``scan_partitions``' pruned-scan step for one partition, merged
    with the seed's top-k; ``filtered=False`` is the reference."""
    rows = partition.pruned_entries(paa, threshold, LENGTH, skip=skip)
    if filtered:
        rows = partition.rows_within(rows, paa, threshold, LENGTH)
    return merge_top_k([seed_top, _top_k(query, partition, rows, k)], k)


def assert_filter_is_exact(partition, query, k):
    paa = paa_transform(query, partition.tree.word_length)
    # The real flow: seed on the target node, its k-th as the threshold.
    target = partition.target_node(
        signature_of_paa(paa, partition.tree.max_bits), k
    )
    seed_top = _top_k(query, partition, partition.entries_under(target), k)
    threshold = seed_top[-1].distance if len(seed_top) >= k else np.inf
    assert merged_answer(
        partition, query, paa, k, threshold, seed_top, target, True
    ) == merged_answer(
        partition, query, paa, k, threshold, seed_top, target, False
    )
    # Any threshold, given k answers at it in the merge: phantom seeds
    # whose ids lose every tie (stored rows at exactly the threshold must
    # survive the filter to enter the answer) or win every tie.
    everything = partition.entries_under(partition.tree.root)
    if len(everything) == 0:
        return
    distances = np.sort(
        batch_euclidean(query, partition.block.values[everything])
    )
    own = {float(distances[0]), float(distances[len(distances) // 2]),
           float(distances[min(k, len(distances)) - 1])}
    top_id = int(partition.block.record_ids.max())
    for threshold in (0.0, np.inf, *own):
        for first_id in (top_id + 1, -k):
            phantoms = [Neighbor(threshold, first_id + i) for i in range(k)]
            got = merged_answer(
                partition, query, paa, k, threshold, phantoms, None, True
            )
            want = merged_answer(
                partition, query, paa, k, threshold, phantoms, None, False
            )
            assert got == want, (threshold, first_id)


def near_duplicate_pool(rng, n, spread, seed):
    """``spread`` small → near-duplicate series → deep cascading splits."""
    centre = np.cumsum(rng.standard_normal(LENGTH))
    pool = random_walk(n, length=LENGTH, seed=seed).values * spread + centre
    return (pool - pool.mean(axis=1, keepdims=True)) / pool.std(
        axis=1, keepdims=True
    )


@given(
    w=st.sampled_from([4, 8]),
    bits=st.integers(2, 6),
    l_max=st.integers(2, 12),
    n_base=st.integers(1, 100),
    n_insert=st.integers(0, 40),
    n_twins=st.integers(0, 6),
    n_remove=st.integers(0, 30),
    k=st.integers(1, 12),
    spread=st.sampled_from([0.02, 0.3, 1.0]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_filtered_merge_equals_unfiltered_merge(
    w, bits, l_max, n_base, n_insert, n_twins, n_remove, k, spread, seed
):
    """Random trees, ``k`` above and below the row count, twins (equal
    values, so equal distances, under differing record ids), then inserts
    that split leaves, then removes: the same answer at every step."""
    rng = np.random.default_rng(seed)
    config = TardisConfig(
        word_length=w, cardinality_bits=bits, l_max_size=l_max
    )
    pool = near_duplicate_pool(rng, n_base + n_insert, spread, seed)
    pool = np.vstack([pool, pool[:n_twins]])
    records = convert_records(list(enumerate(pool)), config)
    twins = records[n_base + n_insert:]
    partition = build_local_partition(0, records[:n_base] + twins, config)
    queries = [pool[0], rng.standard_normal(LENGTH)]
    for query in queries:
        assert_filter_is_exact(partition, query, k)
    for signature, rid, series in records[n_base:n_base + n_insert]:
        partition.insert_record(signature, rid, series)
    for query in queries:
        assert_filter_is_exact(partition, query, k)
    for rid in rng.permutation(len(pool))[:n_remove]:
        assert partition.remove_record(int(rid)) is not None
    for query in queries:
        assert_filter_is_exact(partition, query, k)


@given(
    w=st.sampled_from([4, 8]),
    bits=st.integers(2, 6),
    l_max=st.integers(2, 12),
    n=st.integers(1, 120),
    spread=st.sampled_from([0.02, 0.3, 1.0]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_row_bound_is_the_kernel_bound_and_nests_in_the_leaf(
    w, bits, l_max, n, spread, seed
):
    """What survives is ``mindist_paa_to_words`` row for row, compared
    non-strictly (a threshold at a row's own bound keeps it), and never
    a row of a leaf the node filter would drop; an infinite threshold or
    an empty row set prices nothing."""
    rng = np.random.default_rng(seed)
    config = TardisConfig(
        word_length=w, cardinality_bits=bits, l_max_size=l_max
    )
    pool = near_duplicate_pool(rng, n, spread, seed)
    partition = build_local_partition(
        0, convert_records(list(enumerate(pool)), config), config
    )
    rows = partition.entries_under(partition.tree.root)
    for query in (pool[0], rng.standard_normal(LENGTH)):
        paa = paa_transform(query, w)
        want = mindist_paa_to_words(
            paa, partition.block.symbols[rows], bits, LENGTH
        )
        for node in partition.tree.iter_nodes():
            held = np.isin(rows, node.entries)
            assert (want[held] >= mindist_paa_to_word(
                paa, *decode_signature(node.signature, w), LENGTH
            )).all()
        for threshold in (0.0, *np.unique(want).tolist()):
            slackened = threshold * (1.0 + _ROW_BOUND_SLACK)
            got = partition.rows_within(rows, paa, threshold, LENGTH)
            assert got.tolist() == rows[want <= slackened].tolist()
            assert set(got.tolist()) <= set(
                partition.pruned_entries(paa, slackened, LENGTH).tolist()
            )
    paa = paa_transform(pool[0], w)
    enable_kernel_counters(reset=True)
    try:
        assert partition.rows_within(rows, paa, np.inf, LENGTH) is rows
        assert len(partition.rows_within(rows[:0], paa, 1.0, LENGTH)) == 0
    finally:
        disable_kernel_counters()
    assert KERNELS.totals().get("mindist", {}).get("calls", 0) == 0


def test_a_row_survives_a_threshold_at_its_own_distance():
    """Adversarial rounding: piecewise-constant series sitting on
    breakpoints, piecewise-constant queries (on breakpoints, off them,
    equal to a stored row, all-zero) — bound and distance are equal in
    exact arithmetic and round apart in either order.  The filter must
    keep every row at a threshold equal to that row's computed distance,
    which is what the comparison's relative slack is for."""
    rng = np.random.default_rng(0)
    rounded_above = 0
    for trial in range(240):
        w = int(rng.choice([4, 8]))
        bits = int(rng.integers(2, 7))
        segment = int(rng.choice([1, 2, 3, 4, 16]))
        n = w * segment
        config = TardisConfig(
            word_length=w, cardinality_bits=bits, l_max_size=4
        )
        words = rng.choice(breakpoints(bits), size=(12, w))
        words[-1] = 0.0
        stored = np.repeat(words, segment, axis=1)
        query_word = (
            rng.standard_normal(w) * 2, rng.choice(breakpoints(bits), size=w),
            words[0], np.zeros(w),
        )[trial % 4]
        query = np.repeat(query_word, segment)
        partition = build_local_partition(
            0, convert_records(list(enumerate(stored)), config), config
        )
        rows = partition.entries_under(partition.tree.root)
        paa = paa_transform(query, w)
        bounds = mindist_paa_to_words(
            paa, partition.block.symbols[rows], bits, n
        )
        distances = batch_euclidean(query, partition.block.values[rows])
        assert (bounds <= distances * (1.0 + _ROW_BOUND_SLACK)).all()
        rounded_above += int((bounds > distances).sum())
        for row, distance in zip(rows.tolist(), distances.tolist()):
            assert row in partition.rows_within(rows, paa, distance, n)
    assert rounded_above, "no bound ever rounded above its distance"


def test_symbol_index_is_kept_until_the_symbols_are_replaced():
    """The block's table index is built once and reused; an append
    replaces the symbol array, and the index follows it."""
    from repro.tsdb.distance import table_index

    config = TardisConfig(word_length=4, cardinality_bits=5, l_max_size=4)
    pool = random_walk(12, length=LENGTH, seed=3).z_normalized().values
    records = convert_records(list(enumerate(pool)), config)
    partition = build_local_partition(0, records[:8], config)
    block = partition.block
    held = block.symbol_index(5)
    assert block.symbol_index(5) is held
    assert np.array_equal(held, table_index(block.symbols, 5))
    for signature, rid, series in records[8:]:
        partition.insert_record(signature, rid, series)
        assert np.array_equal(
            block.symbol_index(5), table_index(block.symbols, 5)
        )
    assert len(block.symbol_index(5)) == 12 > len(held)
