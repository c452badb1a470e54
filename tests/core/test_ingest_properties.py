"""Property tests for streaming ingest: interleaved inserts and queries
must be indistinguishable from batch-building over the full data.

The comparisons use the layout-independent surfaces — ``exact_match``
and ``knn_exact`` — because a streamed index and a rebuilt index
legitimately partition records differently; what must agree is every
*answer*, including the ``(distance, record_id)`` tie-break order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    TardisConfig,
    build_tardis_index,
    exact_match,
    knn_exact,
    knn_multi_partitions_access,
    knn_target_node_access,
    plan_rebalance,
    rebalance_index,
)
from repro.core import WriteAheadLog, replay_wal
from repro.core.builder import IngestReport, RoutedBatch
from repro.tsdb import random_walk

LENGTH = 32
BASE_N = 240
POOL_N = 120

_dataset = random_walk(BASE_N + POOL_N, length=LENGTH, seed=123).z_normalized()
_queries = random_walk(6, length=LENGTH, seed=321).z_normalized().values


def _config() -> TardisConfig:
    return TardisConfig(g_max_size=60, l_max_size=12, seed=7)


def _build_base():
    return build_tardis_index(_dataset.subset(np.arange(BASE_N)), _config())


def _rebuilt(n_appended: int):
    """Batch build over base + the first ``n_appended`` pool rows —
    record ids match the streamed index by construction (0..n-1)."""
    return build_tardis_index(_dataset.subset(np.arange(BASE_N + n_appended)),
                              _config())


def _answers(index, query, k=5):
    exact = exact_match(index, query)
    knn = knn_exact(index, query, k)
    return (
        sorted(exact.record_ids),
        [(n.distance, n.record_id) for n in knn.neighbors],
    )


class TestInterleavedEquivalence:
    @given(
        chunks=st.lists(st.integers(1, 16), min_size=1, max_size=6),
        rebalance_after=st.integers(0, 5),
    )
    @settings(max_examples=10, deadline=None)
    def test_stream_then_query_equals_rebuild(self, chunks, rebalance_after):
        index = _build_base()
        pool = _dataset.values[BASE_N:]
        cursor = 0
        for i, size in enumerate(chunks):
            size = min(size, POOL_N - cursor)
            if size <= 0:
                break
            index.ingest(pool[cursor:cursor + size])
            cursor += size
            if i == rebalance_after:
                rebalance_index(index, overflow_factor=1.1)
            # Interleaved read: the streamed record is immediately
            # findable with its assigned id.
            probe = pool[cursor - 1]
            assert (BASE_N + cursor - 1) in exact_match(
                index, probe
            ).record_ids
        index.validate()
        rebuilt = _rebuilt(cursor)
        assert index.n_records == rebuilt.n_records
        for query in _queries:
            assert _answers(index, query) == _answers(rebuilt, query)
        # Appended rows themselves: identical ids from both paths, and
        # the kNN tie-break puts the distance-zero self-match first.
        for offset in (0, cursor - 1):
            row = pool[offset]
            got = _answers(index, row)
            assert got == _answers(rebuilt, row)
            assert got[1][0][1] == BASE_N + offset

    @given(seed=st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_knn_tiebreak_on_duplicates(self, seed):
        """Equal-distance neighbors surface in ascending record-id
        order even when duplicates arrive via streaming."""
        index = _build_base()
        rng = np.random.default_rng(seed)
        row = _dataset.values[int(rng.integers(BASE_N))]
        dup_ids = index.ingest(np.stack([row, row])).record_ids
        result = knn_exact(index, row, 4)
        zero = [n.record_id for n in result.neighbors
                if n.distance == 0.0]
        assert zero == sorted(zero)
        assert set(dup_ids) <= set(zero)


class TestRebalanceInvariants:
    @given(
        n_extra=st.integers(0, POOL_N),
        factor=st.sampled_from([1.0, 1.1, 1.5, 2.0]),
    )
    @settings(max_examples=10, deadline=None)
    def test_rebalance_preserves_routing_and_answers(self, n_extra, factor):
        index = _build_base()
        if n_extra:
            index.ingest(_dataset.values[BASE_N:BASE_N + n_extra])
        before = [_answers(index, q) for q in _queries]
        report = rebalance_index(index, overflow_factor=factor)
        # validate() checks the routing invariant: every entry lives in
        # the partition Tardis-G routes its signature to.
        index.validate()
        assert index.n_records == BASE_N + n_extra
        after = [_answers(index, q) for q in _queries]
        assert before == after
        if report.partitions_split:
            assert report.records_moved > 0

    @given(n_extra=st.integers(1, POOL_N))
    @settings(max_examples=8, deadline=None)
    def test_plan_is_pure(self, n_extra):
        """Planning must not mutate the index — the online rebalancer
        plans outside the gate and applies inside it."""
        index = _build_base()
        index.ingest(_dataset.values[BASE_N:BASE_N + n_extra])
        snapshot = {
            pid: sorted(p.block.record_ids.tolist())
            for pid, p in index.partitions.items()
        }
        plan_rebalance(index, overflow_factor=1.0)
        assert snapshot == {
            pid: sorted(p.block.record_ids.tolist())
            for pid, p in index.partitions.items()
        }
        index.validate()


# ---------------------------------------------------------------------------
# One write body: ingest(batch) leaves the state row-by-row insertion leaves


def index_state(index) -> dict:
    """Everything a write may touch, in comparable form."""
    state = {"n_records": index.n_records}
    for pid, partition in index.partitions.items():
        block = partition.block
        state[pid] = {
            "columns": [
                None if column is None else (column.dtype.str, column.tolist())
                for column in (block.record_ids, block.values,
                               block.signatures, block.symbols)
            ],
            "version": partition.tree.version,
            "nodes": {
                node.signature: (node.count, list(node.entries))
                for node in partition.tree.iter_nodes()
            },
            "bloom": (partition.bloom.bits.tobytes(), partition.bloom.n_items),
            "regions": sorted(partition.region_prefixes),
            "n_records": partition.n_records,
            "nbytes": partition.nbytes,
        }
    return state


def ingest_row_by_row(index, batch, record_ids=None, skip_existing=False):
    """The reference: one ``ingest`` per row, reports merged the way one
    pass over the batch reports them."""
    merged = IngestReport()
    for at, row in enumerate(batch):
        one = index.ingest(
            row[np.newaxis, :],
            record_ids=None if record_ids is None else [record_ids[at]],
            skip_existing=skip_existing,
        )
        merged.record_ids += one.record_ids
        merged.partition_ids += one.partition_ids
        for pid in one.touched:
            if pid not in merged.regions_added:
                merged.touched.append(pid)
                merged.regions_added[pid] = []
            merged.regions_added[pid] += one.regions_added[pid]
    return merged


def assert_twins_agree(batched, reference):
    assert index_state(batched) == index_state(reference)
    for query in _queries:
        for strategy in (knn_multi_partitions_access, knn_target_node_access):
            got, want = strategy(batched, query, 5), strategy(reference, query, 5)
            assert [(n.distance, n.record_id) for n in got.neighbors] == [
                (n.distance, n.record_id) for n in want.neighbors
            ]
        assert _answers(batched, query) == _answers(reference, query)


def _new_region_row(index):
    """A pool row whose coarse prefix its home partition has not seen."""
    pool = _dataset.values[BASE_N:]
    routed = index.prepare_batch(pool)
    for row, signature, pid in zip(pool, routed.signatures, routed.partition_ids):
        partition = index.partitions[pid]
        if partition.region_prefix(signature) not in partition.region_prefixes:
            return row, pid, partition.region_prefix(signature)
    raise AssertionError("the pool holds no region-growing row")


class TestOneWriteBody:
    @given(
        chunks=st.lists(st.integers(1, 24), min_size=1, max_size=5),
        pinned=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_batch_equals_row_by_row(self, chunks, pinned):
        batched, reference = _build_base(), _build_base()
        pool = _dataset.values[BASE_N:]
        cursor = 0
        for size in chunks:
            rows = pool[cursor:cursor + size]
            if not len(rows):
                break
            # Pinned ids need not be increasing, only unique.
            ids = (
                [5_000 + cursor + at for at in reversed(range(len(rows)))]
                if pinned else None
            )
            got = batched.ingest(rows, record_ids=ids)
            want = ingest_row_by_row(reference, rows, record_ids=ids)
            assert got == want
            if pinned:
                assert got.record_ids == ids
            cursor += len(rows)
        assert_twins_agree(batched, reference)
        batched.validate()
        # The next auto id clears every pinned one on both.
        assert batched._next_record_id() == reference._next_record_id()

    def test_insert_series_is_ingest_of_one(self):
        batched, reference = _build_base(), _build_base()
        rows = _dataset.values[BASE_N:BASE_N + 20]
        report = batched.ingest(rows)
        assert report.record_ids == [reference.insert_series(r) for r in rows]
        assert reference.insert_series(rows[0], record_id=900) == 900
        assert batched.ingest(rows[:1], record_ids=[900]).record_ids == [900]
        assert_twins_agree(batched, reference)

    def test_two_rows_share_one_new_region(self):
        batched, reference = _build_base(), _build_base()
        row, pid, prefix = _new_region_row(batched)
        rows = np.stack([row, row])
        got = batched.ingest(rows)
        assert got.regions_added == {pid: [prefix]}  # once, not twice
        assert got.touched == [pid]
        assert got == ingest_row_by_row(reference, rows)
        assert_twins_agree(batched, reference)
        # Told once: the same rows again add no region.
        assert batched.ingest(rows).regions_added == {pid: []}

    def test_leaf_splits_in_the_middle_of_a_group(self):
        batched, reference = _build_base(), _build_base()
        pid, partition = next(iter(batched.partitions.items()))
        row = partition.block.values[partition.tree.leaves()[0].entries[0]]
        other = _dataset.values[BASE_N:BASE_N + 4]
        # l_max_size copies of one series overflow its leaf part-way
        # through the group; rows for other partitions sit between them.
        rows = np.concatenate(
            [np.tile(row, (7, 1)), other, np.tile(row, (7, 1))]
        )
        nodes_before = partition.tree.n_nodes()
        got = batched.ingest(rows)
        assert partition.tree.n_nodes() > nodes_before
        assert got.touched[0] == pid
        assert got == ingest_row_by_row(reference, rows)
        assert_twins_agree(batched, reference)
        batched.validate()

    def test_three_field_routed_batch_still_applies(self):
        """A batch routed without the symbol matrix decodes it back and
        lands in the same state."""
        batched, reference = _build_base(), _build_base()
        rows = _dataset.values[BASE_N:BASE_N + 16]
        routed = batched.prepare_batch(rows)
        assert routed.symbols.shape == (16, batched.config.word_length)
        bare = RoutedBatch(routed.values, routed.signatures, routed.partition_ids)
        assert bare.symbols is None
        assert batched.ingest(bare) == reference.ingest(rows)
        assert_twins_agree(batched, reference)

    def test_skip_existing_present_absent_deleted(self):
        batched, reference = _build_base(), _build_base()
        rows = _dataset.values[:3].copy()
        ids = [0, 7_000, 2]  # 0 present, 7000 absent, 2 about to be deleted
        for index in (batched, reference):
            assert index.delete_series(rows[2], 2)
        got = batched.ingest(rows, record_ids=ids, skip_existing=True)
        want = ingest_row_by_row(
            reference, rows, record_ids=ids, skip_existing=True
        )
        assert got == want
        assert got.record_ids == ids  # all three acknowledged
        assert len(got.partition_ids) == 3
        assert batched.n_records == BASE_N + 1  # -1 deleted, +2 written
        assert_twins_agree(batched, reference)
        assert exact_match(batched, rows[0]).record_ids == [0]  # not doubled
        assert exact_match(batched, rows[1]).record_ids == [1, 7_000]
        assert exact_match(batched, rows[2]).record_ids == [2]
        batched.validate()
        # Redelivery of the same batch is now a no-op.
        again = batched.ingest(rows, record_ids=ids, skip_existing=True)
        assert again.touched == [] and batched.n_records == BASE_N + 1

    def test_idempotent_write_after_delete_is_not_dropped(self):
        """Regression: "present" used to be read from the block's id
        column, which keeps a deleted record's row, so a redelivered
        write of a deleted id was acknowledged and dropped."""
        index = _build_base()
        series = _dataset.values[5]
        assert index.delete_series(series, 5)
        assert exact_match(index, series).record_ids == []
        report = index.ingest(
            series[np.newaxis, :], record_ids=[5], skip_existing=True
        )
        assert report.record_ids == [5]
        assert len(report.touched) == 1
        assert index.n_records == BASE_N
        assert exact_match(index, series).record_ids == [5]
        index.validate()


# ---------------------------------------------------------------------------
# Node counts are the rows under the node; target-node returns min(k, home)


def assert_counts_and_target_node_sizes(index):
    """ROADMAP 3d's invariant.  A target-node answer shorter than ``k``
    is a home partition smaller than ``k`` (the target is then its root),
    never a node whose ``count`` drifted from the rows under it."""
    for partition in index.partitions.values():
        for node in partition.tree.iter_nodes():
            assert node.count == len(partition.entries_under(node)), node
    sizes = index.partition_record_counts()
    big = max(sizes.values())
    short = 0
    for query in np.concatenate([_queries, _dataset.values[:40]]):
        home = index.partitions[index.route_batch(query)[0]].n_records
        for k in (1, 5, big):
            result = knn_target_node_access(index, query, k)
            assert len(result.neighbors) == min(k, home)
            short += home < k
    assert short, "no query met a home partition smaller than k"


def test_node_counts_hold_through_every_write_path(tmp_path):
    index = _build_base()
    assert_counts_and_target_node_sizes(index)  # as built
    pool = _dataset.values[BASE_N:]
    path = tmp_path / "counts.wal"
    with WriteAheadLog(path) as wal:
        ids = [index._next_record_id() for _ in pool[:80]]
        wal.log_appends(list(zip(ids, pool[:80])))
        index.ingest(pool[:80], record_ids=ids)
        assert_counts_and_target_node_sizes(index)  # after ingest
        assert index.delete_series(pool[3], ids[3])
        assert_counts_and_target_node_sizes(index)  # after a delete
        index.ingest(pool[3:4], record_ids=[ids[3]], skip_existing=True)
        wal.log_rebalance_begin(1, 1.1, sorted(index.partitions))
        assert rebalance_index(index, overflow_factor=1.1).partitions_split
        wal.log_rebalance_commit(1)
        assert_counts_and_target_node_sizes(index)  # after rebalance_index
    replayed = _build_base()
    assert replay_wal(replayed, path).appends_applied == 80
    assert_counts_and_target_node_sizes(replayed)  # after replay_wal
    assert replayed.partition_record_counts() == index.partition_record_counts()
