"""Shard plans: contiguous balanced runs, chained replicas, wire form."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queries import knn_multi_partitions_access
from repro.serving import QueryRequest
from repro.sharding import ShardPlan, plan_shards
from repro.telemetry.metrics import get_registry


def sizes(n=19, seed=5):
    """Deterministic skewed partition sizes (ids not contiguous)."""
    return {3 * i + 1: 40 + ((seed + i * i * 31) % 260) for i in range(n)}


class TestPlanShards:
    @pytest.mark.parametrize("n_shards", (1, 2, 3, 4, 7))
    def test_disjoint_and_complete(self, n_shards):
        table = sizes()
        plan = plan_shards(table, n_shards)
        assert plan.n_shards == n_shards
        assert plan.all_partitions == sorted(table)
        owned = [pid for group in plan.shards for pid in group]
        assert len(owned) == len(set(owned))

    @pytest.mark.parametrize("n_shards", (2, 3, 4))
    def test_record_totals_balanced(self, n_shards):
        table = sizes()
        plan = plan_shards(table, n_shards)
        total = sum(table.values())
        capacity = -(-total // n_shards)
        totals = [sum(table[pid] for pid in group) for group in plan.shards]
        assert max(totals) <= 2 * capacity
        # Each shard owns one run of the sorted ids, in shard order.
        assert [pid for group in plan.shards for pid in group] == sorted(
            table
        )

    def test_more_shards_than_partitions_pads_empty(self):
        plan = plan_shards({1: 10, 2: 20}, 5)
        assert plan.n_shards == 5
        assert sum(1 for group in plan.shards if group) <= 2
        assert plan.all_partitions == [1, 2]

    def test_deterministic(self):
        assert plan_shards(sizes(), 3) == plan_shards(sizes(), 3)

    @settings(max_examples=200, deadline=None)
    @given(
        table=st.dictionaries(
            st.integers(0, 500), st.integers(0, 1000), max_size=40
        ),
        n_shards=st.integers(1, 7),
    )
    def test_contiguous_runs_within_one_partition_of_the_share(
        self, table, n_shards
    ):
        plan = plan_shards(table, n_shards)
        owned = [pid for group in plan.shards for pid in group]
        # Complete, disjoint, and contiguous in shard order.
        assert owned == sorted(table)
        capacity = -(-sum(table.values()) // n_shards)
        heaviest = max(table.values(), default=0)
        for group in plan.shards:
            assert sum(table[pid] for pid in group) <= capacity + heaviest
        assert plan_shards(dict(reversed(table.items())), n_shards) == plan

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="n_shards"):
            plan_shards(sizes(), 0)
        with pytest.raises(ValueError, match="replication"):
            plan_shards(sizes(), 3, replication=3)
        with pytest.raises(ValueError, match="replication"):
            plan_shards(sizes(), 3, replication=-1)


class TestChainedReplicas:
    @pytest.fixture(scope="class")
    def plan(self):
        return plan_shards(sizes(), 4, replication=2)

    def test_hosts_owner_first_ring_order(self, plan):
        for pid in plan.all_partitions:
            hosts = plan.hosts_of(pid)
            owner = plan.owner_of(pid)
            assert hosts[0] == owner
            assert len(hosts) == plan.replication + 1
            assert len(set(hosts)) == len(hosts)
            assert hosts == [(owner + i) % 4 for i in range(3)]

    def test_hosted_is_primaries_plus_chained_copies(self, plan):
        for shard_id in range(plan.n_shards):
            hosted = set(plan.hosted(shard_id))
            expected = set(plan.shards[shard_id])
            for source in plan.replica_sources(shard_id):
                expected.update(plan.shards[source])
            assert hosted == expected

    def test_losing_one_shard_removes_one_host_per_partition(self, plan):
        # The failure-domain property chaining buys: any single shard
        # death costs every partition at most one replica.
        for dead in range(plan.n_shards):
            for pid in plan.all_partitions:
                hosts = plan.hosts_of(pid)
                assert sum(1 for h in hosts if h == dead) <= 1

    def test_replication_zero_means_owner_only(self):
        plan = plan_shards(sizes(), 3, replication=0)
        for pid in plan.all_partitions:
            assert plan.hosts_of(pid) == [plan.owner_of(pid)]
            assert plan.hosted(plan.owner_of(pid)).count(pid) == 1


class TestWireForm:
    def test_round_trip(self):
        plan = plan_shards(sizes(), 3, replication=1)
        doc = plan.to_dict()
        assert ShardPlan.from_dict(doc) == plan
        # JSON-safe: only ints and lists.
        import json

        assert ShardPlan.from_dict(json.loads(json.dumps(doc))) == plan

    def test_validation_on_load(self):
        with pytest.raises(ValueError, match="owned by two shards"):
            ShardPlan.from_dict(
                {"n_shards": 2, "replication": 0, "shards": [[1, 2], [2]]}
            )
        with pytest.raises(ValueError, match="expected"):
            ShardPlan.from_dict(
                {"n_shards": 3, "replication": 0, "shards": [[1], [2]]}
            )


class TestRouterCalls:
    def test_one_call_per_owner_of_the_capped_list(
        self, tardis_small, heldout_queries, router_factory
    ):
        # Fault-free, R=0: the seed call carries every capped pid its
        # host owns, and each other owner gets one scatter call.
        with router_factory(tardis_small, n_shards=3) as (router, cluster):
            calls = get_registry().get("serving_shard_requests_total")
            before = calls.value if calls else 0.0
            owners = 0
            for q in heldout_queries:
                want = knn_multi_partitions_access(tardis_small, q, 10)
                owners += len({
                    cluster.plan.owner_of(pid)
                    for pid in want.partition_ids_loaded
                })
                got = router.query(QueryRequest(
                    q, op="knn", strategy="multi-partitions", k=10,
                ), timeout=60)
                assert got.record_ids == want.record_ids
            made = get_registry().get("serving_shard_requests_total").value
        assert made - before == owners == 91
