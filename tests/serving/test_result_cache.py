"""Result cache keying and coherence.

The regression this file pins down: identical query series issued with
different ``(strategy, k, pth)`` — or a different op — are *different
work* and must never share a cache entry or a batch group.  A stale
cross-strategy hit would silently return target-node answers to a
multi-partitions caller.
"""

import numpy as np
import pytest

from repro.core import build_tardis_index, TardisConfig
from repro.core.queries import knn_one_partition_access
from repro.serving import QueryRequest, QueryService, ResultCache
from repro.serving.batcher import group_tickets
from repro.serving.service import Ticket
from repro.tsdb import random_walk


@pytest.fixture(scope="module")
def tiny_index():
    dataset = random_walk(600, length=32, seed=21).z_normalized()
    return build_tardis_index(
        dataset, TardisConfig(g_max_size=100, l_max_size=20, pth=3)
    )


@pytest.fixture(scope="module")
def tiny_dataset():
    return random_walk(600, length=32, seed=21).z_normalized()


class TestRequestKeys:
    def test_same_series_different_plans_distinct(self):
        series = np.linspace(-1.0, 1.0, 32)
        base = QueryRequest(series, op="knn", strategy="target-node", k=5)
        variants = [
            QueryRequest(series, op="knn", strategy="one-partition", k=5),
            QueryRequest(series, op="knn", strategy="target-node", k=7),
            QueryRequest(series, op="knn", strategy="multi-partitions",
                         k=5, pth=2),
            QueryRequest(series, op="knn", strategy="multi-partitions",
                         k=5, pth=3),
            QueryRequest(series, op="exact-match"),
            QueryRequest(series, op="exact-match", use_bloom=False),
        ]
        keys = {v.cache_key() for v in variants}
        assert len(keys) == len(variants)
        assert base.cache_key() not in keys

    def test_same_plan_same_series_equal_key(self):
        series = np.linspace(-1.0, 1.0, 32)
        a = QueryRequest(series.copy(), op="knn", strategy="target-node", k=5)
        b = QueryRequest(series.copy(), op="knn", strategy="target-node", k=5)
        assert a.cache_key() == b.cache_key()

    def test_different_series_distinct_key(self):
        a = QueryRequest(np.linspace(-1, 1, 32), op="exact-match")
        b = QueryRequest(np.linspace(-1, 1.01, 32), op="exact-match")
        assert a.cache_key() != b.cache_key()

    def test_pth_ignored_for_non_mpa(self):
        # pth only participates in the plan for multi-partitions access.
        series = np.linspace(-1.0, 1.0, 32)
        a = QueryRequest(series, op="knn", strategy="target-node", k=5,
                         pth=2)
        b = QueryRequest(series, op="knn", strategy="target-node", k=5,
                         pth=3)
        assert a.cache_key() == b.cache_key()

    def test_invalid_requests_rejected(self):
        series = np.zeros(16)
        with pytest.raises(ValueError):
            QueryRequest(series, op="scan")
        with pytest.raises(ValueError):
            QueryRequest(series, op="knn", strategy="psychic")
        with pytest.raises(ValueError):
            QueryRequest(series, op="knn", k=0)
        with pytest.raises(ValueError):
            QueryRequest(np.zeros((4, 4)))


class TestBatchGroupingSeparation:
    def test_identical_series_different_plans_never_share_group(
        self, tiny_index, tiny_dataset
    ):
        from concurrent.futures import Future

        series = tiny_dataset.values[0]
        tickets = [
            Ticket(QueryRequest(series, op="knn", strategy="target-node",
                                k=5), Future(), 0.0),
            Ticket(QueryRequest(series, op="knn", strategy="one-partition",
                                k=5), Future(), 0.0),
            Ticket(QueryRequest(series, op="knn", strategy="target-node",
                                k=9), Future(), 0.0),
            Ticket(QueryRequest(series, op="exact-match"), Future(), 0.0),
        ]
        groups = group_tickets(tiny_index, tickets)
        assert len(groups) == 4  # same home partition, four plans
        assert len({g.plan_key for g in groups}) == 4

    def test_same_plan_same_partition_shares_group(
        self, tiny_index, tiny_dataset
    ):
        from concurrent.futures import Future

        series = tiny_dataset.values[0]
        tickets = [
            Ticket(QueryRequest(series, op="knn", strategy="target-node",
                                k=5), Future(), 0.0)
            for _ in range(4)
        ]
        groups = group_tickets(tiny_index, tickets)
        assert len(groups) == 1
        assert groups[0].size == 4


class TestResultCacheUnit:
    def test_lru_eviction(self):
        cache = ResultCache(2)
        cache.put("a", 1, [0])
        cache.put("b", 2, [0])
        cache.put("c", 3, [1])  # evicts a
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_partition_invalidation_drops_only_dependents(self):
        cache = ResultCache(8)
        cache.put("a", 1, [0, 1])
        cache.put("b", 2, [1])
        cache.put("c", 3, [2])
        assert cache.invalidate_partition(1) == 2
        assert cache.get("a") is None
        assert cache.get("b") is None
        assert cache.get("c") == 3
        assert cache.invalidations == 2

    def test_stats_shape(self):
        cache = ResultCache(4)
        cache.put("k", "v", [3])
        cache.get("k")
        cache.get("missing")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["hit_rate"] == 0.5


class TestNoStaleCrossStrategyHits:
    def test_cross_strategy_queries_get_their_own_answers(self, tiny_index):
        series = random_walk(1, length=32, seed=77).z_normalized().values[0]
        with QueryService(
            tiny_index, max_batch=4, max_delay_ms=1.0
        ) as service:
            first = service.query(
                QueryRequest(series, op="knn", strategy="target-node", k=5)
            )
            # Same series, different strategy: must execute, not hit.
            second = service.query(
                QueryRequest(series, op="knn", strategy="one-partition", k=5)
            )
            third = service.query(
                QueryRequest(series, op="knn", strategy="target-node", k=5)
            )
            stats = service.stats()["result_cache"]
        assert first.strategy == "target-node"
        assert second.strategy == "one-partition"
        reference = knn_one_partition_access(tiny_index, series, 5)
        assert second.record_ids == reference.record_ids
        assert second.distances == reference.distances
        # Exactly one hit: the repeated (series, plan) pair — never the
        # cross-strategy pair.
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert third.record_ids == first.record_ids

    def test_cached_repeat_is_identical_object_level(self, tiny_index):
        series = random_walk(1, length=32, seed=88).z_normalized().values[0]
        request = QueryRequest(series, op="knn", strategy="target-node", k=3)
        with QueryService(
            tiny_index, max_batch=2, max_delay_ms=1.0
        ) as service:
            first = service.query(request)
            again = service.query(
                QueryRequest(series, op="knn", strategy="target-node", k=3)
            )
        assert again.record_ids == first.record_ids
        assert again.distances == first.distances


class TestInvalidationCoupling:
    def test_insert_series_invalidates_cached_answers(self):
        dataset = random_walk(400, length=32, seed=31).z_normalized()
        index = build_tardis_index(
            dataset, TardisConfig(g_max_size=80, l_max_size=16, pth=3)
        )
        probe = dataset.values[5]
        with QueryService(index, max_batch=2, max_delay_ms=1.0) as service:
            before = service.query(
                QueryRequest(probe, op="exact-match")
            )
            assert before.record_ids == [5]
            # Writing a duplicate of the probe mutates its home
            # partition; the service's write path must drop the answers
            # derived from it so the next ask re-executes.
            [new_id] = service.write(probe).record_ids
            after = service.query(QueryRequest(probe, op="exact-match"))
            stats = service.stats()["result_cache"]
        assert stats["invalidations"] >= 1
        assert stats["hits"] == 0  # the stale entry was dropped
        assert sorted(after.record_ids) == sorted([5, new_id])

    def test_bloom_rejected_negative_invalidated_by_insert(self):
        # Regression: a bloom-rejected exact match loads no partition, so
        # its cached "not found" used to be indexed under no partition and
        # survived the insert's invalidation forever.  It must be indexed
        # under the routed home partition instead.
        dataset = random_walk(400, length=32, seed=31).z_normalized()
        index = build_tardis_index(
            dataset, TardisConfig(g_max_size=80, l_max_size=16, pth=3)
        )
        absent = random_walk(1, length=32, seed=999).z_normalized().values[0]
        with QueryService(index, max_batch=2, max_delay_ms=1.0) as service:
            before = service.query(QueryRequest(absent, op="exact-match"))
            assert before.bloom_rejected
            assert not before.found
            # The negative answer is now cached; writing the series
            # updates its home partition's bloom filter and must drop the
            # stale negative on the write path.
            [new_id] = service.write(absent).record_ids
            after = service.query(QueryRequest(absent, op="exact-match"))
            stats = service.stats()["result_cache"]
        assert stats["invalidations"] >= 1
        assert not after.bloom_rejected
        assert after.record_ids == [new_id]
