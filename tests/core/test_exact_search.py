"""Tests for exact kNN and range queries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import brute_force_knn, query_signature
from repro.core.exact_search import knn_exact, range_query
from repro.tsdb.series import z_normalize


def _query(seed: int, length: int = 64) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return z_normalize(np.cumsum(rng.standard_normal(length)))


class TestKnnExact:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_equals_brute_force(self, tardis_small, rw_small, seed):
        """The central exactness property, over random queries."""
        q = _query(seed)
        exact = knn_exact(tardis_small, q, 10)
        truth = brute_force_knn(rw_small, q, 10)
        assert exact.record_ids == [n.record_id for n in truth]
        assert exact.distances == pytest.approx([n.distance for n in truth])

    def test_self_query(self, tardis_small, rw_small):
        result = knn_exact(tardis_small, rw_small.values[5], 1)
        assert result.record_ids == [5]
        assert result.distances[0] == 0.0

    def test_prunes_partitions(self, tardis_small):
        """For typical queries the bound skips at least one partition."""
        pruned_any = any(
            knn_exact(tardis_small, _query(s), 5).partitions_loaded
            < len(tardis_small.partitions)
            for s in range(5)
        )
        assert pruned_any

    def test_k_larger_than_dataset(self, tardis_small, rw_small):
        result = knn_exact(tardis_small, rw_small.values[0], len(rw_small) + 5)
        assert len(result.neighbors) == len(rw_small)

    def test_invalid_inputs(self, tardis_small, rw_small, small_config):
        with pytest.raises(ValueError):
            knn_exact(tardis_small, rw_small.values[0], 0)
        from repro.core import build_tardis_index

        unclustered = build_tardis_index(rw_small, small_config, clustered=False)
        with pytest.raises(RuntimeError, match="clustered"):
            knn_exact(unclustered, rw_small.values[0], 3)

    def test_sorted_output(self, tardis_small):
        result = knn_exact(tardis_small, _query(3), 20)
        assert result.distances == sorted(result.distances)

    def test_beats_approximate_strategies(self, tardis_small, rw_small,
                                          heldout_queries):
        """Exact kNN's k-th distance lower-bounds every approximate one."""
        from repro.core import knn_multi_partitions_access

        for q in heldout_queries[:5]:
            exact = knn_exact(tardis_small, q, 10)
            approx = knn_multi_partitions_access(tardis_small, q, 10)
            assert exact.distances[-1] <= approx.distances[-1] + 1e-9


class TestRangeQuery:
    @given(seed=st.integers(0, 10_000), radius=st.floats(0.5, 8.0))
    @settings(max_examples=20, deadline=None)
    def test_equals_linear_scan(self, tardis_small, rw_small, seed, radius):
        q = _query(seed)
        result = range_query(tardis_small, q, radius)
        expected = {
            int(rid)
            for rid, row in rw_small
            if float(np.linalg.norm(q - row)) <= radius
        }
        assert {n.record_id for n in result.neighbors} == expected

    def test_zero_radius_finds_exact_copy(self, tardis_small, rw_small):
        result = range_query(tardis_small, rw_small.values[9], 0.0)
        assert result.record_ids == [9]

    def test_results_sorted(self, tardis_small):
        result = range_query(tardis_small, _query(1), 7.0)
        assert result.distances == sorted(result.distances)

    def test_all_within_radius(self, tardis_small, rw_small):
        q = _query(2)
        result = range_query(tardis_small, q, 6.5)
        for neighbor in result.neighbors:
            true = float(np.linalg.norm(q - rw_small.series(neighbor.record_id)))
            assert true <= 6.5 + 1e-9
            assert neighbor.distance == pytest.approx(true)

    def test_negative_radius_rejected(self, tardis_small):
        with pytest.raises(ValueError):
            range_query(tardis_small, _query(0), -1.0)

    def test_small_radius_prunes(self, tardis_small):
        result = range_query(tardis_small, _query(4), 0.5)
        assert result.partitions_loaded < len(tardis_small.partitions)


class TestBoundOrderedWalk:
    """The stop rule both exact searches share: partitions in ascending
    ``(region bound, pid)`` order, until the next bound is strictly
    above the threshold."""

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_knn_loads_a_bound_ordered_prefix(self, tardis_small, seed, k):
        q = _query(seed)
        bounds = tardis_small.region_bounds(query_signature(tardis_small, q)[1])
        result = knn_exact(tardis_small, q, k)
        order = sorted((bound, pid) for pid, bound in bounds.items())
        loaded = result.partition_ids_loaded
        assert [(bounds[pid], pid) for pid in loaded] == order[:len(loaded)]
        skipped = order[len(loaded):]
        assert all(bound > result.distances[-1] for bound, _pid in skipped)
        assert result.nodes_pruned >= len(skipped)
        assert result.rows_refined <= result.candidates_examined

    @given(seed=st.integers(0, 10_000), radius=st.floats(0.0, 9.0))
    @settings(max_examples=20, deadline=None)
    def test_range_loads_every_partition_within_the_radius(
        self, tardis_small, seed, radius
    ):
        q = _query(seed)
        bounds = tardis_small.region_bounds(query_signature(tardis_small, q)[1])
        result = range_query(tardis_small, q, radius)
        within = sorted(
            (bound, pid) for pid, bound in bounds.items() if bound <= radius
        )
        assert result.partition_ids_loaded == [pid for _bound, pid in within]
        assert result.nodes_pruned >= len(bounds) - len(within)

    def test_exact_after_splits_and_removals(self, rw_small, small_config):
        """A warm node table does not outlive the tree it flattened:
        after inserts that split leaves and after removals, exact kNN is
        brute force over the surviving rows, floats and ids."""
        from repro.core import build_tardis_index
        from repro.tsdb.series import TimeSeriesDataset

        base = rw_small.subset(np.arange(600))
        index = build_tardis_index(base, small_config)
        q = _query(11)
        knn_exact(index, q, 5)  # flattens every tree the walk loads
        rng = np.random.default_rng(5)
        rows = {int(rid): row for rid, row in base}

        def n_nodes():
            return sum(
                1 for p in index.partitions.values()
                for _node in p.tree.iter_nodes()
            )

        nodes_before = n_nodes()
        for source in rng.integers(0, 600, size=200):
            series = z_normalize(
                base.values[source] + rng.normal(0.0, 0.05, base.length)
            )
            rows[index.insert_series(series)] = series
        assert nodes_before < n_nodes()
        for rid in sorted(rows)[::7]:
            assert index.delete_series(rows.pop(rid), rid)
        survivors = TimeSeriesDataset(
            np.stack(list(rows.values())), record_ids=np.array(list(rows))
        )
        for query in (q, _query(12), base.values[3]):
            got = knn_exact(index, query, 10)
            truth = brute_force_knn(survivors, query, 10)
            assert [(n.distance, n.record_id) for n in got.neighbors] == [
                (n.distance, n.record_id) for n in truth
            ]
