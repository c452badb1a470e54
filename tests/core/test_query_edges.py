"""Edge-case tests for query processing: tiny k, tiny pth, duplicates,
degenerate configurations."""

import numpy as np
import pytest

from repro.core import (
    TardisConfig,
    build_tardis_index,
    exact_match,
    knn_exact,
    knn_multi_partitions_access,
    knn_one_partition_access,
    knn_target_node_access,
)
from repro.tsdb import TimeSeriesDataset, random_walk
from repro.tsdb.series import z_normalize


class TestTinyK:
    @pytest.mark.parametrize("fn", [
        knn_target_node_access, knn_one_partition_access,
        knn_multi_partitions_access, knn_exact,
    ], ids=["tna", "opa", "mpa", "exact"])
    def test_k_equals_one(self, fn, tardis_small, heldout_queries):
        result = fn(tardis_small, heldout_queries[0], 1)
        assert len(result.neighbors) == 1

    @pytest.mark.parametrize("fn", [
        knn_target_node_access, knn_one_partition_access,
        knn_multi_partitions_access, knn_exact,
    ], ids=["tna", "opa", "mpa", "exact"])
    def test_zero_k_rejected(self, fn, tardis_small, heldout_queries):
        with pytest.raises(ValueError):
            fn(tardis_small, heldout_queries[0], 0)


class TestTinyPth:
    def test_pth_one_still_answers(self, tardis_small, heldout_queries):
        result = knn_multi_partitions_access(
            tardis_small, heldout_queries[1], 10, pth=1
        )
        assert len(result.neighbors) == 10
        assert result.partitions_loaded == 1

    @pytest.mark.parametrize("pth", [0, -1])
    def test_non_positive_pth_rejected(
        self, pth, tardis_small, heldout_queries
    ):
        """The wire's rule on the library path: ``0`` used to mean the
        config's cap and ``-1`` sliced the candidate list from its end."""
        with pytest.raises(
            ValueError, match="pth must be a positive partition count"
        ):
            knn_multi_partitions_access(
                tardis_small, heldout_queries[1], 10, pth=pth
            )

    def test_pth_none_is_the_config_cap(self, tardis_small, heldout_queries):
        query = heldout_queries[1]
        default = knn_multi_partitions_access(tardis_small, query, 10)
        explicit = knn_multi_partitions_access(
            tardis_small, query, 10, pth=tardis_small.config.pth
        )
        assert default.partition_ids_loaded == explicit.partition_ids_loaded
        assert default.neighbors == explicit.neighbors


class TestDuplicateHeavyData:
    @pytest.fixture(scope="class")
    def dupes(self):
        """A dataset where one exact series repeats 200 times."""
        base = random_walk(500, length=32, seed=6).z_normalized()
        repeated = np.tile(base.values[0], (200, 1))
        values = np.vstack([base.values, repeated])
        dataset = TimeSeriesDataset(values)
        index = build_tardis_index(
            dataset, TardisConfig(g_max_size=150, l_max_size=15)
        )
        return dataset, index

    def test_exact_match_returns_all_copies(self, dupes):
        dataset, index = dupes
        result = exact_match(index, dataset.values[0])
        assert len(result.record_ids) == 201  # original + 200 copies

    def test_knn_on_duplicate_returns_zero_distances(self, dupes):
        dataset, index = dupes
        result = knn_exact(index, dataset.values[0], 50)
        assert all(d == 0.0 for d in result.distances)
        assert len(set(result.record_ids)) == 50

    def test_structure_survives(self, dupes):
        _dataset, index = dupes
        index.validate()


class TestSingletonDataset:
    def test_one_series_index(self):
        dataset = random_walk(1, length=32, seed=7).z_normalized()
        index = build_tardis_index(
            dataset, TardisConfig(g_max_size=10, l_max_size=5)
        )
        assert exact_match(index, dataset.values[0]).record_ids == [0]
        result = knn_target_node_access(index, dataset.values[0], 5)
        assert result.record_ids == [0]  # only one answer exists


class TestQueryDtypeRobustness:
    def test_float32_query_accepted(self, tardis_small, rw_small):
        q32 = rw_small.values[3].astype(np.float32)
        # float32 round-trip perturbs values: signature may shift, exact
        # match legitimately misses, but kNN must still run and find the
        # float64 original as nearest.
        result = knn_exact(tardis_small, q32.astype(np.float64), 1)
        assert result.neighbors[0].record_id == 3

    def test_list_input_accepted(self, tardis_small, rw_small):
        as_list = rw_small.values[4].tolist()
        result = knn_target_node_access(tardis_small, np.array(as_list), 1)
        assert result.neighbors[0].record_id == 4


class TestQueryOutOfDistribution:
    def test_extreme_query_still_answers(self, tardis_small):
        """A query far outside the data: all strategies return k results
        with finite distances (fallback routing is total)."""
        q = z_normalize(np.linspace(-1, 1, 64) ** 3)
        for fn in (knn_target_node_access, knn_one_partition_access,
                   knn_multi_partitions_access):
            result = fn(tardis_small, q, 5)
            assert len(result.neighbors) == 5
            assert all(np.isfinite(d) for d in result.distances)
