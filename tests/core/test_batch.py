"""Tests for batch query processing."""

import numpy as np
import pytest

from repro.core import exact_match, knn_target_node_access
from repro.core.batch import batch_exact_match, batch_knn_target_node
from repro.experiments.workloads import exact_match_workload
from repro.metrics import mean


class TestBatchExactMatch:
    @pytest.fixture(scope="class")
    def workload(self, rw_small):
        return exact_match_workload(rw_small, 40, seed=77)

    def test_answers_match_interactive_path(self, tardis_small, workload):
        batch = batch_exact_match(
            tardis_small, np.array([q.values for q in workload])
        )
        for query, result in zip(workload, batch.results):
            single = exact_match(tardis_small, query.values)
            assert sorted(result.record_ids) == sorted(single.record_ids)

    def test_loads_each_partition_at_most_once(self, tardis_small, workload):
        batch = batch_exact_match(
            tardis_small, np.array([q.values for q in workload])
        )
        assert batch.partitions_loaded <= len(tardis_small.partitions)

    def test_cheaper_than_query_at_a_time(self, tardis_small, workload):
        queries = np.array([q.values for q in workload])
        batch = batch_exact_match(tardis_small, queries, use_bloom=False)
        singles = sum(
            exact_match(tardis_small, q, use_bloom=False).simulated_seconds
            for q in queries
        )
        assert batch.simulated_seconds < singles

    def test_bloom_skips_unneeded_partitions(self, tardis_small, rw_small):
        workload = exact_match_workload(rw_small, 30, absent_fraction=1.0,
                                        seed=5)
        queries = np.array([q.values for q in workload])
        with_bf = batch_exact_match(tardis_small, queries, use_bloom=True)
        without = batch_exact_match(tardis_small, queries, use_bloom=False)
        assert with_bf.partitions_loaded < without.partitions_loaded
        rejected = sum(r.bloom_rejected for r in with_bf.results)
        assert rejected > 20

    def test_correctness_flags(self, tardis_small, workload):
        batch = batch_exact_match(
            tardis_small, np.array([q.values for q in workload])
        )
        for query, result in zip(workload, batch.results):
            if query.present:
                assert query.record_id in result.record_ids
            else:
                assert result.record_ids == []


class TestBatchKnn:
    def test_answers_match_interactive_path(self, tardis_small,
                                            heldout_queries):
        batch = batch_knn_target_node(tardis_small, heldout_queries[:15], 10)
        for q, result in zip(heldout_queries[:15], batch.results):
            single = knn_target_node_access(tardis_small, q, 10)
            assert result.record_ids == single.record_ids
            assert result.distances == single.distances
            assert result.partition_ids_loaded == single.partition_ids_loaded
            assert result.nodes_visited == single.nodes_visited

    def test_partition_amortization(self, tardis_small, heldout_queries):
        batch = batch_knn_target_node(tardis_small, heldout_queries, 10)
        assert batch.partitions_loaded <= len(tardis_small.partitions)
        singles = mean(
            [knn_target_node_access(tardis_small, q, 10).simulated_seconds
             for q in heldout_queries]
        ) * len(heldout_queries)
        assert batch.simulated_seconds < singles

    def test_invalid_inputs(self, tardis_small, rw_small, small_config,
                            heldout_queries):
        with pytest.raises(ValueError):
            batch_knn_target_node(tardis_small, heldout_queries[:2], 0)
        from repro.core import build_tardis_index

        unclustered = build_tardis_index(rw_small, small_config,
                                         clustered=False)
        with pytest.raises(RuntimeError, match="clustered"):
            batch_knn_target_node(unclustered, heldout_queries[:2], 5)

    def test_empty_batch(self, tardis_small):
        report = batch_knn_target_node(tardis_small, np.zeros((0, 64)), 5)
        assert report.results == []
        assert report.partitions_loaded == 0
