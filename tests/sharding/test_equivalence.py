"""Cross-topology equivalence: the sharded answer IS the answer.

The acceptance bar for the sharded tier mirrors the serving tier's
(`tests/serving/test_service_equivalence.py`): for a fixed index and
query set, results through a 3-shard router — any replication factor —
are *identical* to the same queries issued serially through
:mod:`repro.core.queries`.  Identical means exact equality of record
ids, float distances (ties included), and the accounting fields; the
shards run the single-process kernels over subset indices and the
router reuses the single-process fan-out selection and merge rules, so
there is no tolerance to hide behind.
"""

import numpy as np
import pytest

from repro.core.queries import (
    exact_match,
    knn_multi_partitions_access,
    knn_one_partition_access,
    knn_target_node_access,
)
from repro.serving import QueryRequest

@pytest.fixture(scope="module")
def query_mix(rw_small, heldout_queries):
    """Present rows (exact hits, partition reuse) plus held-out probes."""
    return np.vstack([rw_small.values[:10], heldout_queries[:8]])


def _reference(index, queries, op, strategy, k, pth):
    if op == "exact-match":
        return [exact_match(index, q) for q in queries]
    fn = {
        "target-node": lambda q: knn_target_node_access(index, q, k),
        "one-partition": lambda q: knn_one_partition_access(index, q, k),
        "multi-partitions": lambda q: knn_multi_partitions_access(
            index, q, k, pth=pth
        ),
    }[strategy]
    return [fn(q) for q in queries]


def _routed(router, queries, op, strategy, k, pth):
    futures = [
        router.submit(
            QueryRequest(q, op=op, strategy=strategy, k=k, pth=pth)
        )
        for q in queries
    ]
    return [f.result(timeout=60) for f in futures]


def assert_knn_identical(served, reference):
    for got, want in zip(served, reference):
        assert got.strategy == want.strategy
        assert got.record_ids == want.record_ids
        assert got.distances == want.distances  # exact float equality
        assert got.candidates_examined == want.candidates_examined
        assert got.rows_refined == want.rows_refined
        assert sorted(got.partition_ids_loaded) == sorted(
            want.partition_ids_loaded
        )
        assert not got.degraded
        assert got.missing_partitions == []


class TestEquivalencePerStrategy:
    """3 shards, R=0."""

    @pytest.fixture()
    def router(self, tardis_small, router_factory):
        with router_factory(tardis_small, n_shards=3) as (router, _cluster):
            yield router

    def test_exact_match(self, tardis_small, query_mix, router):
        reference = _reference(
            tardis_small, query_mix, "exact-match", None, 0, None
        )
        served = _routed(router, query_mix, "exact-match", None, 0, None)
        for got, want in zip(served, reference):
            assert got.record_ids == want.record_ids
            assert got.bloom_rejected == want.bloom_rejected
            assert got.found == want.found

    def test_knn_target_node(self, tardis_small, query_mix, router):
        reference = _reference(
            tardis_small, query_mix, "knn", "target-node", 10, None
        )
        served = _routed(router, query_mix, "knn", "target-node", 10, None)
        assert_knn_identical(served, reference)

    def test_knn_one_partition(self, tardis_small, query_mix, router):
        reference = _reference(
            tardis_small, query_mix, "knn", "one-partition", 10, None
        )
        served = _routed(router, query_mix, "knn", "one-partition", 10, None)
        assert_knn_identical(served, reference)

    def test_knn_multi_partitions(self, tardis_small, query_mix, router):
        reference = _reference(
            tardis_small, query_mix, "knn", "multi-partitions", 10, 3
        )
        served = _routed(
            router, query_mix, "knn", "multi-partitions", 10, 3
        )
        assert_knn_identical(served, reference)


@pytest.mark.parametrize("pth", (1, 2, 4, None))
def test_fanout_cap_respected_and_identical(
    tardis_small, query_mix, router_factory, pth
):
    """The router applies the paper's pth cap itself (it picks which
    partitions to scatter to), yet the capped answer still matches the
    single-process capped answer — same selection rule, same merge."""
    reference = _reference(
        tardis_small, query_mix[:8], "knn", "multi-partitions", 10, pth
    )
    with router_factory(tardis_small, n_shards=3) as (router, _cluster):
        served = _routed(
            router, query_mix[:8], "knn", "multi-partitions", 10, pth
        )
    assert_knn_identical(served, reference)
    cap = pth if pth is not None else tardis_small.config.pth
    assert all(len(r.partition_ids_loaded) <= cap for r in served)


@pytest.mark.parametrize("topology", ((1, 0), (2, 1), (4, 0), (4, 2)))
def test_equivalence_across_topologies(
    tardis_small, query_mix, router_factory, topology
):
    """Shard count and replication are deployment knobs, never
    correctness knobs."""
    n_shards, replication = topology
    reference = _reference(
        tardis_small, query_mix[:6], "knn", "multi-partitions", 10, 3
    )
    with router_factory(
        tardis_small, n_shards=n_shards, replication=replication
    ) as (router, _cluster):
        served = _routed(
            router, query_mix[:6], "knn", "multi-partitions", 10, 3
        )
    assert_knn_identical(served, reference)


def test_tie_breaks_survive_the_wire(tardis_small, rw_small,
                                     router_factory):
    """Querying an indexed row yields a 0.0-distance self-hit and
    near-ties among close neighbors; the (distance, record_id)
    tie-break must order them identically through the scatter/gather
    merge — the sharpest bit-equivalence probe."""
    with router_factory(tardis_small, n_shards=3) as (router, _cluster):
        for row in (0, 1, 2, 3, 4):
            series = rw_small.values[row]
            want = knn_multi_partitions_access(tardis_small, series, 10)
            got = router.query(QueryRequest(
                series, op="knn", strategy="multi-partitions", k=10
            ), timeout=60)
            assert want.distances[0] == 0.0
            assert got.record_ids == want.record_ids
            assert got.distances == want.distances


def test_router_stats_expose_topology(tardis_small, router_factory):
    with router_factory(
        tardis_small, n_shards=3, replication=1
    ) as (router, _cluster):
        router.query(QueryRequest(
            np.zeros(tardis_small.series_length), op="knn",
            strategy="target-node", k=3,
        ), timeout=60)
        report = router.stats()
    assert report["topology"]["shards"] == 3
    assert report["topology"]["replicas"] == 1
    assert report["topology"]["pth"] == tardis_small.config.pth
    assert len(report["shards"]) == 3
    assert all(s["requests"] >= 0 for s in report["shards"])
    assert report["requests_completed"] >= 1


def test_wrong_length_query_rejected_at_submit(tardis_small,
                                               router_factory):
    with router_factory(tardis_small, n_shards=2) as (router, _cluster):
        with pytest.raises(ValueError, match="length"):
            router.submit(QueryRequest(np.zeros(7), op="exact-match"))
