"""kNN tie-break regression: equal distances resolve by ascending record
id, identically on every query path.

Built around the failure mode that motivated the fix: a dataset holding
several byte-identical copies of the same series, queried with ``k``
cutting *through* the duplicate group.  Without a deterministic
secondary key the chosen subset depends on scan order — heap eviction
order in exact search, leaf order in target-node access, concatenation
order in the multi-partition merge — and strategies disagree with the
ground truth on which duplicate ids they return.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    TardisConfig,
    batch_knn_target_node,
    brute_force_knn,
    build_tardis_index,
    knn_exact,
    knn_multi_partitions_access,
    knn_one_partition_access,
    knn_target_node_access,
)
from repro.tsdb import random_walk
from repro.tsdb.series import TimeSeriesDataset

LENGTH = 48
N_BASE = 900
N_COPIES = 5  # copies of the duplicated series, ids 0..4


@pytest.fixture(scope="module")
def dup_index():
    """An index whose first N_COPIES records are the same series.

    The duplicates share one signature, so they land in one leaf of one
    partition — every strategy's candidate set contains all of them.
    """
    base = random_walk(N_BASE, length=LENGTH, seed=31).z_normalized()
    dup = np.tile(base.values[0], (N_COPIES, 1))
    values = np.vstack([dup, base.values[1:]])
    dataset = TimeSeriesDataset(values, name="dup")
    config = TardisConfig(g_max_size=200, l_max_size=30, pth=4)
    index = build_tardis_index(dataset, config)
    return index, dataset


@pytest.fixture(scope="module")
def dup_query(dup_index):
    _index, dataset = dup_index
    return dataset.values[0]


K_AT_BOUNDARY = [1, 2, N_COPIES - 1, N_COPIES, N_COPIES + 3]


class TestGroundTruthTieBreak:
    @pytest.mark.parametrize("k", K_AT_BOUNDARY)
    def test_ties_resolve_by_ascending_rid(self, dup_index, dup_query, k):
        _index, dataset = dup_index
        got = brute_force_knn(dataset, dup_query, k)
        n_zero = min(k, N_COPIES)
        assert [n.record_id for n in got[:n_zero]] == list(range(n_zero))
        assert all(n.distance == 0.0 for n in got[:n_zero])
        # Overall order is (distance, record_id) lexicographic.
        keys = [(n.distance, n.record_id) for n in got]
        assert keys == sorted(keys)


class TestStrategiesAgree:
    @pytest.mark.parametrize("k", K_AT_BOUNDARY)
    def test_all_paths_match_ground_truth(self, dup_index, dup_query, k):
        index, dataset = dup_index
        truth = [(n.distance, n.record_id)
                 for n in brute_force_knn(dataset, dup_query, k)]

        def key(result):
            return [(n.distance, n.record_id) for n in result.neighbors]

        tna = knn_target_node_access(index, dup_query, k)
        opa = knn_one_partition_access(index, dup_query, k)
        mpa = knn_multi_partitions_access(index, dup_query, k)
        exact = knn_exact(index, dup_query, k)
        # The approximate strategies see every duplicate (one shared
        # leaf), so on the tied prefix they must agree with truth; the
        # exact search must match truth outright.
        n_zero = min(k, N_COPIES)
        for result in (tna, opa, mpa):
            assert key(result)[:n_zero] == truth[:n_zero]
        assert key(exact) == truth

    @pytest.mark.parametrize("k", [N_COPIES - 1, N_COPIES])
    def test_batch_matches_interactive(self, dup_index, dup_query, k):
        index, _dataset = dup_index
        queries = np.vstack([dup_query, dup_query])
        report = batch_knn_target_node(index, queries, k=k)
        interactive = knn_target_node_access(index, dup_query, k)
        for result in report.results:
            assert [(n.distance, n.record_id) for n in result.neighbors] == [
                (n.distance, n.record_id) for n in interactive.neighbors
            ]


class TestExactSearchHeapOrder:
    def test_kth_tie_prefers_smaller_rid(self, dup_index, dup_query):
        """With k == N_COPIES every zero-distance duplicate fits; with
        k == N_COPIES - 1 the heap must evict the *largest* duplicate id,
        whatever order leaves were scanned in."""
        index, _dataset = dup_index
        k = N_COPIES - 1
        got = knn_exact(index, dup_query, k)
        assert [n.record_id for n in got.neighbors] == list(range(k))

    def test_duplicates_across_insert_order(self):
        """Duplicates appended *last* (high ids, scanned late) must not
        displace equal-distance low ids already in the heap."""
        base = random_walk(300, length=LENGTH, seed=77).z_normalized()
        dup = np.tile(base.values[5], (3, 1))
        values = np.vstack([base.values, dup])  # dup ids 300, 301, 302
        dataset = TimeSeriesDataset(values, name="dup-late")
        index = build_tardis_index(
            dataset, TardisConfig(g_max_size=200, l_max_size=30, pth=4)
        )
        query = base.values[5]
        got = knn_exact(index, query, 3)
        # Four zero-distance copies exist (ids 5, 300, 301, 302); the
        # three smallest ids win.
        assert [n.record_id for n in got.neighbors] == [5, 300, 301]
        truth = brute_force_knn(dataset, query, 3)
        assert [n.record_id for n in truth] == [5, 300, 301]
