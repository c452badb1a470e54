"""Tests for the query execution report (explain)."""

import numpy as np

from repro.core import (
    exact_match,
    explain,
    knn_exact,
    knn_multi_partitions_access,
    range_query,
)
from repro.core.batch import batch_knn_target_node


class TestExplain:
    def test_knn_report_contents(self, tardis_small, heldout_queries):
        result = knn_multi_partitions_access(tardis_small, heldout_queries[0], 5)
        report = explain(result)
        assert "answer: 5 neighbors" in report
        assert "partitions loaded" in report
        assert f"rows scored: {result.rows_scored}" in report
        assert "simulated time" in report
        assert "query/load partitions" in report
        assert "#" in report  # the share bar

    def test_exact_match_found(self, tardis_small, rw_small):
        report = explain(exact_match(tardis_small, rw_small.values[2]))
        assert "record ids [2]" in report
        assert "query/load partition" in report

    def test_exact_match_bloom_rejection(self, tardis_small, rw_small):
        from repro.tsdb.series import z_normalize

        rng = np.random.default_rng(3)
        for i in range(20):
            ghost = z_normalize(rw_small.values[i] + rng.normal(0, 0.1, 64))
            result = exact_match(tardis_small, ghost)
            if result.bloom_rejected:
                report = explain(result)
                assert "not found" in report
                assert "bloom rejected: True" in report
                return
        raise AssertionError("no bloom rejection observed")

    def test_exact_search_prune_stats(self, tardis_small, heldout_queries):
        result = knn_exact(tardis_small, heldout_queries[1], 5)
        report = explain(result)
        assert "candidates examined" in report

    def test_range_query(self, tardis_small, heldout_queries):
        report = explain(range_query(tardis_small, heldout_queries[2], 5.0))
        assert "simulated time" in report

    def test_batch_report(self, tardis_small, heldout_queries):
        batch = batch_knn_target_node(tardis_small, heldout_queries[:5], 3)
        report = explain(batch)
        assert "batch of 5 queries" in report
        assert "batch/partition pass" in report

    def test_object_without_ledger(self):
        class Bare:
            record_ids = [1]

        report = explain(Bare())
        assert "no execution stages recorded" in report
