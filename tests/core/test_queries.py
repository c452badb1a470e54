"""Tests for TARDIS query processing: exact match and the three kNN
strategies."""

import numpy as np
import pytest

from repro.core import (
    brute_force_knn,
    exact_match,
    knn_multi_partitions_access,
    knn_one_partition_access,
    knn_target_node_access,
)
from repro.core.queries import query_signature
from repro.metrics import recall
from repro.tsdb.series import z_normalize


class TestExactMatch:
    def test_present_series_found(self, tardis_small, rw_small):
        for row in (0, 100, 2999):
            result = exact_match(tardis_small, rw_small.values[row])
            assert row in result.record_ids
            assert result.partitions_loaded == 1
            assert not result.bloom_rejected

    def test_absent_series_rejected_by_bloom_mostly(self, tardis_small, rw_small):
        rng = np.random.default_rng(11)
        rejected = 0
        for i in range(30):
            ghost = z_normalize(rw_small.values[i] + rng.normal(0, 0.1, 64))
            result = exact_match(tardis_small, ghost)
            assert result.record_ids == []
            rejected += int(result.bloom_rejected)
        # The Bloom filter prevents most absent-series partition loads.
        assert rejected >= 20

    def test_bloom_rejection_skips_partition_load(self, tardis_small, rw_small):
        rng = np.random.default_rng(12)
        for i in range(30):
            ghost = z_normalize(rw_small.values[i] + rng.normal(0, 0.1, 64))
            result = exact_match(tardis_small, ghost)
            if result.bloom_rejected:
                assert result.partitions_loaded == 0
                break
        else:
            pytest.fail("no bloom rejection observed in 30 absent queries")

    def test_nobf_mode_always_loads(self, tardis_small, rw_small):
        rng = np.random.default_rng(13)
        ghost = z_normalize(rw_small.values[0] + rng.normal(0, 0.1, 64))
        result = exact_match(tardis_small, ghost, use_bloom=False)
        assert result.record_ids == []
        assert result.partitions_loaded == 1
        assert not result.bloom_rejected

    def test_bloom_faster_on_absent(self, tardis_small, rw_small):
        rng = np.random.default_rng(14)
        ghost = z_normalize(rw_small.values[5] + rng.normal(0, 0.1, 64))
        with_bf = exact_match(tardis_small, ghost, use_bloom=True)
        without = exact_match(tardis_small, ghost, use_bloom=False)
        if with_bf.bloom_rejected:
            assert with_bf.simulated_seconds < without.simulated_seconds

    def test_found_flag(self, tardis_small, rw_small):
        assert exact_match(tardis_small, rw_small.values[1]).found


class TestKnnCommonContract:
    @pytest.mark.parametrize(
        "fn",
        [knn_target_node_access, knn_one_partition_access,
         knn_multi_partitions_access],
        ids=["tna", "opa", "mpa"],
    )
    def test_returns_k_sorted_unique(self, fn, tardis_small, heldout_queries):
        k = 10
        result = fn(tardis_small, heldout_queries[0], k)
        assert len(result.neighbors) == k
        dists = result.distances
        assert dists == sorted(dists)
        assert len(set(result.record_ids)) == k

    @pytest.mark.parametrize(
        "fn",
        [knn_target_node_access, knn_one_partition_access,
         knn_multi_partitions_access],
        ids=["tna", "opa", "mpa"],
    )
    def test_distances_are_true_euclidean(self, fn, tardis_small, rw_small,
                                          heldout_queries):
        result = fn(tardis_small, heldout_queries[1], 5)
        for neighbor in result.neighbors:
            true = np.linalg.norm(
                heldout_queries[1] - rw_small.series(neighbor.record_id)
            )
            assert neighbor.distance == pytest.approx(float(true))

    def test_unclustered_index_rejected(self, rw_small, small_config):
        from repro.core import build_tardis_index

        index = build_tardis_index(rw_small, small_config, clustered=False)
        with pytest.raises(RuntimeError, match="clustered"):
            knn_target_node_access(index, rw_small.values[0], 5)


class TestKnnQuality:
    def test_query_from_dataset_finds_itself(self, tardis_small, rw_small):
        result = knn_target_node_access(tardis_small, rw_small.values[7], 1)
        assert result.neighbors[0].record_id == 7
        assert result.neighbors[0].distance == 0.0

    def test_candidate_scope_ordering(self, tardis_small, heldout_queries):
        """OPA examines at least TNA's candidates; MPA at least OPA's."""
        k = 10
        for q in heldout_queries[:10]:
            tna = knn_target_node_access(tardis_small, q, k)
            opa = knn_one_partition_access(tardis_small, q, k)
            mpa = knn_multi_partitions_access(tardis_small, q, k)
            assert opa.candidates_examined >= tna.candidates_examined
            assert mpa.candidates_examined >= opa.candidates_examined
            assert mpa.partitions_loaded >= 1

    def test_average_recall_ordering(self, tardis_small, rw_small,
                                     heldout_queries):
        """The paper's headline: recall(TNA) <= recall(OPA) <= recall(MPA)
        on average (small per-query violations are possible)."""
        k = 10
        recalls = {"tna": [], "opa": [], "mpa": []}
        for q in heldout_queries[:15]:
            truth = [n.record_id for n in brute_force_knn(rw_small, q, k)]
            recalls["tna"].append(
                recall(knn_target_node_access(tardis_small, q, k).record_ids, truth)
            )
            recalls["opa"].append(
                recall(knn_one_partition_access(tardis_small, q, k).record_ids, truth)
            )
            recalls["mpa"].append(
                recall(knn_multi_partitions_access(tardis_small, q, k).record_ids, truth)
            )
        means = {m: float(np.mean(v)) for m, v in recalls.items()}
        assert means["tna"] <= means["opa"] + 0.05
        assert means["opa"] <= means["mpa"] + 0.05
        assert means["mpa"] > 0.2  # sanity: MPA is genuinely useful

    def test_opa_contains_tna_answers_or_better(self, tardis_small,
                                                heldout_queries):
        """OPA's k-th distance can never exceed TNA's (superset scope)."""
        k = 10
        for q in heldout_queries[:10]:
            tna = knn_target_node_access(tardis_small, q, k)
            opa = knn_one_partition_access(tardis_small, q, k)
            assert opa.distances[-1] <= tna.distances[-1] + 1e-9


class TestMultiPartitionsSpecifics:
    def test_pth_caps_partition_loads(self, tardis_small, heldout_queries):
        result = knn_multi_partitions_access(
            tardis_small, heldout_queries[2], 10, pth=2
        )
        assert result.partitions_loaded <= 2

    def test_default_pth_from_config(self, tardis_small, heldout_queries):
        result = knn_multi_partitions_access(tardis_small, heldout_queries[3], 10)
        assert result.partitions_loaded <= tardis_small.config.pth

    def test_repeat_call_determinism(self, tardis_small, heldout_queries):
        a = knn_multi_partitions_access(tardis_small, heldout_queries[4], 10)
        b = knn_multi_partitions_access(tardis_small, heldout_queries[4], 10)
        assert a.record_ids == b.record_ids

    def test_mpa_at_least_as_good_as_opa_kth(self, tardis_small,
                                             heldout_queries):
        for q in heldout_queries[:8]:
            opa = knn_one_partition_access(tardis_small, q, 10)
            mpa = knn_multi_partitions_access(tardis_small, q, 10)
            assert mpa.distances[-1] <= opa.distances[-1] + 1e-9


class TestQuerySignature:
    def test_matches_dataset_conversion(self, tardis_small, rw_small):
        sig, paa = query_signature(tardis_small, rw_small.values[0])
        partition = tardis_small.partitions[
            tardis_small.global_index.route(sig)
        ]
        assert any(e[0] == sig and e[1] == 0 for e in partition.all_entries())
        assert paa.shape == (tardis_small.config.word_length,)
