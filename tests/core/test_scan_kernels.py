"""Differential tests for the flat MPA hot path.

The kNN hot path prices everything through one MINDIST kernel
(:class:`repro.tsdb.distance.GapTable`) fed by two flat tables: the
per-tree node table behind ``LocalPartition.pruned_entries`` and the
:class:`repro.core.region.RegionMatrix` behind ``region_bounds``.  Both
replaced per-node / per-partition loops and promise the *same floats and
the same counts*; the loops live on here, as the references.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TardisConfig, build_tardis_index, rebalance_index
from repro.core.builder import convert_records
from repro.core.isaxt import batch_decode_signatures
from repro.core.local_index import ScanStats, build_local_partition
from repro.core.queries import query_signature, select_mpa_partitions
from repro.core.region import RegionMatrix
from repro.tsdb import paa_transform, random_walk
from repro.tsdb.distance import (
    GapTable,
    mindist_paa_to_words,
    table_index,
)
from repro.tsdb.sax import MAX_CARDINALITY_BITS, breakpoints

LENGTH = 32


# ---------------------------------------------------------------------------
# the kernel


def test_breakpoints_nest_exactly():
    """``breakpoints(b)`` are the odd-indexed ``breakpoints(b + 1)``,
    float for float: a child stripe lies inside its parent's, so a
    node's bound is never below its parent's — what lets a flat mask
    stand in for the top-down walk."""
    for bits in range(1, MAX_CARDINALITY_BITS):
        assert np.array_equal(
            breakpoints(bits), breakpoints(bits + 1)[1::2]
        ), bits


@given(
    w=st.sampled_from([4, 8, 16]),
    max_bits=st.integers(1, 8),
    scale=st.sampled_from([0.0, 0.3, 1.0, 4.0]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_kernel_equals_mindist_paa_to_words(w, max_bits, scale, seed):
    """Every layer 0..max_bits, exact floats, and min-then-sqrt equals
    sqrt-then-min."""
    rng = np.random.default_rng(seed)
    paa = rng.standard_normal(w) * scale
    gaps = GapTable(paa, max_bits)
    for bits in range(max_bits + 1):
        symbols = rng.integers(0, 1 << bits, size=(rng.integers(1, 40), w))
        want = mindist_paa_to_words(paa, symbols, bits, LENGTH)
        index = table_index(symbols, bits)
        assert np.array_equal(gaps.mindist(index, LENGTH), want)
        starts = np.array([0, len(symbols) // 2], dtype=np.intp)[
            : 1 + (len(symbols) > 1)
        ]
        grouped = gaps.mindist(index, LENGTH, starts)
        assert grouped.tolist() == [
            part.min() for part in np.split(want, starts[1:])
        ]


# ---------------------------------------------------------------------------
# node-table scan ≡ the level-synchronous walk it replaced


def reference_walk(partition, paa, threshold, n, skip=None):
    """The pre-flattening ``pruned_entries``: walk the tree top-down one
    level at a time, price each level's nodes with
    ``mindist_paa_to_words``, descend only below kept nodes."""
    stats = ScanStats()
    collected = []
    root = partition.tree.root
    frontier = []
    if root is not skip:
        stats.visited += 1
        collected.extend(root.entries)
        frontier = [c for c in root.children.values() if c is not skip]
    w = partition.tree.word_length
    while frontier:
        symbols, bits = batch_decode_signatures(
            np.asarray([node.signature for node in frontier]), w
        )
        bounds = mindist_paa_to_words(paa, symbols, bits, n)
        next_frontier = []
        for node, bound in zip(frontier, bounds):
            if bound > threshold:
                stats.pruned += 1
                continue
            stats.visited += 1
            collected.extend(node.entries)
            next_frontier.extend(
                c for c in node.children.values() if c is not skip
            )
        frontier = next_frontier
    return collected, stats


def skip_choices(partition):
    """None, the root, an internal node and a leaf (where they exist)."""
    nodes = list(partition.tree.iter_nodes())
    internal = [n for n in nodes if not n.is_leaf and not n.is_root]
    leaves = [n for n in nodes if n.is_leaf and not n.is_root]
    return [None, partition.tree.root, *internal[:1], *internal[-1:],
            *leaves[:1], *leaves[-1:]]


def assert_scan_equals_walk(partition, queries):
    n = LENGTH
    w = partition.tree.word_length
    for query in queries:
        paa = paa_transform(query, w)
        everything = mindist_paa_to_words(
            paa, partition.block.symbols, partition.tree.max_bits, n
        )
        finite = float(np.median(everything)) if len(everything) else 1.0
        for threshold in (0.0, finite, np.inf):
            for skip in skip_choices(partition):
                want_rows, want = reference_walk(
                    partition, paa, threshold, n, skip
                )
                got = ScanStats()
                rows = partition.pruned_entries(
                    paa, threshold, n, skip=skip, stats=got
                )
                assert len(rows) == len(want_rows)
                assert set(rows.tolist()) == set(want_rows)
                assert (got.visited, got.pruned) == (
                    want.visited, want.pruned
                )


@given(
    w=st.sampled_from([4, 8]),
    bits=st.integers(2, 6),
    l_max=st.integers(2, 12),
    n_base=st.integers(0, 120),
    n_insert=st.integers(0, 60),
    n_remove=st.integers(0, 30),
    spread=st.sampled_from([0.02, 0.3, 1.0]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_node_table_scan_equals_walk(
    w, bits, l_max, n_base, n_insert, n_remove, spread, seed
):
    """Random trees (``spread`` small → near-duplicate series → deep
    cascading splits), then inserts that split leaves, then removes: the
    flat scan returns the walk's row set and counts at every step."""
    rng = np.random.default_rng(seed)
    config = TardisConfig(
        word_length=w, cardinality_bits=bits, l_max_size=l_max
    )
    centre = np.cumsum(rng.standard_normal(LENGTH))
    pool = random_walk(
        n_base + n_insert, length=LENGTH, seed=seed
    ).values * spread + centre
    pool = (pool - pool.mean(axis=1, keepdims=True)) / pool.std(
        axis=1, keepdims=True
    )
    records = convert_records(list(enumerate(pool)), config)
    partition = build_local_partition(0, records[:n_base], config)
    queries = [pool[0] if len(pool) else centre, rng.standard_normal(LENGTH)]
    assert_scan_equals_walk(partition, queries)
    for signature, rid, series in records[n_base:]:
        partition.insert_record(signature, rid, series)
    assert_scan_equals_walk(partition, queries)
    for rid in rng.permutation(n_base + n_insert)[:n_remove]:
        assert partition.remove_record(int(rid)) is not None
    assert_scan_equals_walk(partition, queries)
    partition.tree.validate()


def test_cache_filled_inside_an_insert_does_not_outlive_it():
    """Regression: ``insert_entry`` bumped ``tree.version`` *before* the
    entry went in, so a reader that filled a version-keyed cache inside
    that window (a shard's handler thread runs beside the batcher's
    writes) filed a row set without the new row under the new version,
    and served it until the next mutation.  The bump now follows the
    mutation, leaf splits included, and fills read the version first."""
    config = TardisConfig(word_length=4, cardinality_bits=6, l_max_size=4)
    pool = random_walk(30, length=LENGTH, seed=9).z_normalized().values
    # Near-duplicates of one series: each insert lands in the one hot
    # leaf, and the fifth splits it.
    pool = pool[:1] + 1e-3 * pool
    records = convert_records(list(enumerate(pool)), config)
    partition = build_local_partition(0, records[:4], config)
    tree, root = partition.tree, partition.tree.root
    paa = paa_transform(pool[0], config.word_length)

    def read_everything():
        return (
            sorted(partition.entries_under(root).tolist()),
            sorted(partition.pruned_entries(paa, np.inf, LENGTH).tolist()),
        )

    real_prefix = tree._prefix
    fills = []

    def prefix_and_fill(signature, layer):
        # _prefix runs throughout the window: on the way down, and per
        # redistributed entry of a split.
        fills.append(read_everything())
        return real_prefix(signature, layer)

    n_nodes = tree.n_nodes()
    for signature, rid, series in records[4:12]:
        tree._prefix = prefix_and_fill
        try:
            partition.insert_record(signature, rid, series)
        finally:
            tree._prefix = real_prefix
        live = sorted(range(rid + 1))
        assert read_everything() == (live, live)
    assert fills, "the hook never ran: the window was not exercised"
    assert tree.n_nodes() > n_nodes, "no insert split a leaf"


# ---------------------------------------------------------------------------
# region matrix ≡ per-synopsis bounds


def per_synopsis_bounds(index, paa):
    return {
        pid: partition.region_bound(paa, index.series_length)
        for pid, partition in index.partitions.items()
    }


@pytest.fixture(scope="module")
def dataset():
    return random_walk(700, length=LENGTH, seed=31).z_normalized()


def fresh_index(dataset, n=500):
    return build_tardis_index(
        dataset.subset(np.arange(n)),
        TardisConfig(g_max_size=60, l_max_size=12, pth=3, seed=7),
    )


@pytest.fixture(scope="module")
def paas(dataset):
    queries = random_walk(12, length=LENGTH, seed=32).z_normalized().values
    return [paa_transform(q, 8) for q in queries]


def test_matrix_bounds_equal_per_synopsis_bounds(dataset, paas):
    """Exact floats, for the whole index, for a sibling run, for a
    scattered subset and for nothing — and the matrix is reused until a
    member's prefix set is replaced."""
    index = fresh_index(dataset)
    pids = sorted(index.partitions)
    assert len(pids) > 6
    for paa in paas:
        want = per_synopsis_bounds(index, paa)
        assert index.region_bounds(paa) == want
        for subset in (pids[2:5], pids[::3], pids[-1:], [pids[4], pids[1]]):
            assert index.region_bounds(paa, subset) == {
                pid: want[pid] for pid in subset
            }
        assert index.region_bounds(paa, []) == {}
    held = index._region_matrix
    index.region_bounds(paas[0])
    assert index._region_matrix is held


def test_matrix_follows_synopsis_growth_and_empty_partitions(dataset, paas):
    index = fresh_index(dataset)
    victim, donor, *_ = sorted(index.partitions)
    index.region_bounds(paas[0])
    held = index._region_matrix
    kept = index.partitions[donor].region.table_rows()
    # add() on one member: that member re-decodes, the others do not.
    index.partitions[victim].region.add(
        index.partitions[donor].region_prefixes
    )
    for paa in paas:
        assert index.region_bounds(paa) == per_synopsis_bounds(index, paa)
    assert index._region_matrix is not held
    assert index.partitions[donor].region.table_rows() is kept
    # A partition with no records bounds at +inf, wherever it sorts.
    from repro.core.region import RegionSynopsis

    for empty_pid in (victim, sorted(index.partitions)[-1], donor):
        synopses = {pid: p.region for pid, p in index.partitions.items()}
        synopses[empty_pid] = RegionSynopsis(8)
        got = RegionMatrix(synopses).bounds(paas[0], LENGTH)
        want = per_synopsis_bounds(index, paas[0])
        want[empty_pid] = np.inf
        assert got == want
    only_empty = RegionMatrix({3: RegionSynopsis(8)})
    assert only_empty.bounds(paas[0], LENGTH) == {3: np.inf}
    assert RegionMatrix({}).bounds(paas[0], LENGTH) == {}


def test_matrix_follows_inserts_and_a_rebalance_swap(dataset, paas):
    """Streamed rows grow synopses; a rebalance swaps partitions in and
    adds new ones, so sibling lists stop being contiguous id runs."""
    index = fresh_index(dataset)
    index.region_bounds(paas[0])
    index.ingest(dataset.values[500:])
    for paa in paas:
        assert index.region_bounds(paa) == per_synopsis_bounds(index, paa)
    before = set(index.partitions)
    report = rebalance_index(index, overflow_factor=1.05)
    assert report.partitions_split, "fixture must overflow a partition"
    assert set(index.partitions) > before
    for paa in paas:
        want = per_synopsis_bounds(index, paa)
        assert index.region_bounds(paa) == want
        grown = sorted(set(index.partitions) - before)
        subset = [min(before), *grown]
        assert index.region_bounds(paa, subset) == {
            pid: want[pid] for pid in subset
        }


def test_concurrent_readers_never_see_a_half_built_table(dataset):
    """Shard handler threads share the lazily built tables: after each
    batch of writes every node table and the region matrix are stale,
    and more reader threads than cores rebuild them at once.  Each must
    publish only finished tables — every answer equals a serial twin's."""
    import sys
    import threading

    from repro.core import knn_multi_partitions_access

    queries = random_walk(16, length=LENGTH, seed=34).z_normalized().values

    def answers(index, order):
        out = {}
        for i in order:
            r = knn_multi_partitions_access(index, queries[i], k=5)
            out[i] = (r.record_ids, r.distances, r.candidates_examined,
                      r.nodes_visited, r.nodes_pruned, r.partition_ids_loaded)
        return out

    shared, twin = fresh_index(dataset), fresh_index(dataset)
    n_threads = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for chunk in np.array_split(dataset.values[500:], 3):
            shared.ingest(chunk)
            twin.ingest(chunk)
            want = answers(twin, range(len(queries)))
            got = [None] * n_threads
            barrier = threading.Barrier(n_threads)

            def reader(slot):
                barrier.wait(timeout=30)
                order = np.random.default_rng(slot).permutation(len(queries))
                got[slot] = answers(shared, order.tolist())

            threads = [
                threading.Thread(target=reader, args=(slot,))
                for slot in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert got == [want] * n_threads
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# router ≡ local selection after a sharded write


def test_router_selects_what_the_local_index_selects_after_a_write(dataset):
    """A write acknowledged through the router grows the router's own
    synopsis copy; its (now stale) matrix must follow, or router and
    shards would disagree on the ``pth`` fan-out."""
    from repro.serving import QueryRequest
    from repro.sharding import RouterIndex, RouterService, ShardCluster

    index = fresh_index(dataset)
    queries = random_walk(8, length=LENGTH, seed=33).z_normalized().values
    quiet = {"result_cache_size": None, "max_delay_ms": 0.0}
    with ShardCluster.for_index(
        index, 2, 0, mode="threads", service_kwargs=quiet
    ) as cluster, RouterService(
        RouterIndex.from_index(index), cluster.plan, cluster.addresses,
        result_cache_size=None, health_interval_s=0.0,
    ) as router:
        def selections():
            for query in queries:
                signature, paa = query_signature(index, query)
                want = select_mpa_partitions(
                    index.global_index, signature, 3,
                    lambda pid: index.partitions[pid].region_bound(
                        paa, LENGTH
                    ),
                )
                assert router.index.region_bounds(paa) == {
                    pid: router.index.bound_of(pid, paa)
                    for pid in router.index.synopses
                } == per_synopsis_bounds(index, paa)
                got = router.query(QueryRequest(
                    query, op="knn", strategy="multi-partitions", k=5, pth=3
                ))
                assert got.partition_ids_loaded == want[1]

        selections()
        held = router.index._region_matrix
        grown = []
        for chunk in np.array_split(dataset.values[500:], 10):
            ack = router._op_write({"op": "write-batch",
                                    "batch": chunk.tolist()})
            grown.extend(ack.get("regions_added", {}))
        assert grown, "fixture must grow at least one synopsis"
        selections()
        assert router.index._region_matrix is not held
