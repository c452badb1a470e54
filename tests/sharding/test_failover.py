"""Failure handling: replicas mask shard death, loss degrades soundly.

Two regimes, matching docs/ROBUSTNESS.md:

* **R >= 1, one shard dead** — every partition still has a live host;
  the router fails over and answers stay bit-identical with zero
  degraded results.  Failover may cost retries; it may never change
  answers.
* **R = 0, one shard dead** — partitions owned by the dead shard are
  simply gone.  kNN answers degrade exactly like single-process
  serving under partition loss: ``degraded=True``, the lost-and-needed
  partitions in ``missing_partitions``, and the neighbor list a
  provably-correct *prefix* of the baseline (region-synopsis bound).
  Degraded answers never enter the result cache; exact-match raises a
  typed :class:`PartialResultError`.
"""

import numpy as np
import pytest

from repro.core.queries import (
    exact_match,
    knn_multi_partitions_access,
    knn_one_partition_access,
    knn_target_node_access,
    query_signature,
    select_mpa_partitions,
    sibling_bound_lookup,
)
from repro.faults import (
    PartialResultError,
    PartitionUnavailableError,
    active_plan,
)
from repro.serving import QueryRequest
from repro.serving.admission import OverloadedError
from repro.telemetry.metrics import get_registry


@pytest.fixture(scope="module")
def probes(rw_small, heldout_queries):
    return np.vstack([rw_small.values[:4], heldout_queries[:6]])


def _knn(router, series, strategy="multi-partitions", k=10):
    return router.query(
        QueryRequest(series, op="knn", strategy=strategy, k=k), timeout=60
    )


class TestReplicaFailover:
    @pytest.mark.parametrize("dead", (0, 1, 2))
    def test_answers_identical_after_shard_death(
        self, tardis_small, probes, router_factory, dead
    ):
        refs = [
            knn_multi_partitions_access(tardis_small, q, 10) for q in probes
        ]
        with router_factory(
            tardis_small, n_shards=3, replication=1, call_timeout_s=5.0
        ) as (router, cluster):
            cluster.kill_shard(dead)
            for q, want in zip(probes, refs):
                got = _knn(router, q)
                assert got.record_ids == want.record_ids
                assert got.distances == want.distances
                assert not got.degraded
            report = router.stats()
        assert report["requests_degraded"] == 0
        assert report["requests_failed"] == 0
        # The dead shard was actually tried: failover left fingerprints.
        assert any(
            s["shard_id"] == dead and not s["up"]
            for s in report["shards"]
        )

    def test_exact_match_fails_over(self, tardis_small, rw_small,
                                    router_factory):
        rows = rw_small.values[:6]
        refs = [exact_match(tardis_small, row) for row in rows]
        with router_factory(
            tardis_small, n_shards=3, replication=2, call_timeout_s=5.0
        ) as (router, cluster):
            cluster.kill_shard(1)
            cluster.kill_shard(2)  # R=2: still one live host each
            for row, want in zip(rows, refs):
                got = router.query(
                    QueryRequest(row, op="exact-match"), timeout=60
                )
                assert got.found
                assert got.record_ids == want.record_ids

    def test_health_check_marks_dead_shard_down(self, tardis_small,
                                                router_factory):
        with router_factory(
            tardis_small, n_shards=3, replication=1, call_timeout_s=5.0
        ) as (router, cluster):
            assert router.check_health() == {0: True, 1: True, 2: True}
            cluster.kill_shard(2)
            health = router.check_health()
        assert health[2] is False
        assert health[0] and health[1]


class TestUnreplicatedLoss:
    def _lost_setup(self, index, probes, router_factory):
        """Pick a dead shard that at least one probe actually needs."""
        refs = [knn_multi_partitions_access(index, q, 10) for q in probes]
        return refs

    @pytest.mark.parametrize("dead", (0, 1, 2))
    def test_knn_degrades_to_provable_prefix(
        self, tardis_small, probes, router_factory, dead
    ):
        refs = self._lost_setup(tardis_small, probes, router_factory)
        with router_factory(
            tardis_small, n_shards=3, replication=0, call_timeout_s=5.0
        ) as (router, cluster):
            lost = set(cluster.plan.shards[dead])
            cluster.kill_shard(dead)
            saw_degraded = False
            for q, want in zip(probes, refs):
                got = _knn(router, q)
                needed = sorted(lost & set(want.partition_ids_loaded))
                if not needed:
                    assert not got.degraded
                    assert got.record_ids == want.record_ids
                    assert got.distances == want.distances
                    continue
                saw_degraded = True
                assert got.degraded
                assert got.missing_partitions == needed
                # MINDIST truncation: the surviving neighbors are the
                # baseline answer's prefix, bit-for-bit.
                n = len(got.record_ids)
                assert n <= len(want.record_ids)
                assert got.record_ids == want.record_ids[:n]
                assert got.distances == want.distances[:n]
            assert saw_degraded, "no probe needed the dead shard"

    def test_degraded_answers_never_cached(self, tardis_small, probes,
                                           router_factory):
        with router_factory(
            tardis_small, n_shards=3, replication=0, call_timeout_s=5.0,
            result_cache_size=256,
        ) as (router, cluster):
            # Find a probe whose answer needs the dead shard.
            victim = None
            for q in probes:
                want = knn_multi_partitions_access(tardis_small, q, 10)
                if set(cluster.plan.shards[0]) & set(
                    want.partition_ids_loaded
                ):
                    victim = q
                    break
            assert victim is not None
            cluster.kill_shard(0)
            request = QueryRequest(
                victim, op="knn", strategy="multi-partitions", k=10
            )
            first = router.query(request, timeout=60)
            second = router.query(request, timeout=60)
            report = router.stats()
        assert first.degraded and second.degraded
        # Both executions recomputed: a degraded answer must never be
        # served back from the cache as if it were complete.
        assert report["result_cache_hits"] == 0
        assert report["requests_degraded"] == 2

    def test_exact_match_raises_typed_partial_result(
        self, tardis_small, rw_small, router_factory
    ):
        with router_factory(
            tardis_small, n_shards=3, replication=0, call_timeout_s=5.0
        ) as (router, cluster):
            # Find a row homed on shard 1.
            victim = home = None
            for row in rw_small.values[:20]:
                ref = exact_match(tardis_small, row)
                if ref.partition_ids_loaded[0] in cluster.plan.shards[1]:
                    victim, home = row, ref.partition_ids_loaded[0]
                    break
            assert victim is not None
            cluster.kill_shard(1)
            with pytest.raises(PartialResultError) as excinfo:
                router.query(QueryRequest(victim, op="exact-match"),
                             timeout=60)
        assert excinfo.value.missing_partitions == [home]

    def test_single_partition_strategy_degrades_empty(
        self, tardis_small, heldout_queries, router_factory
    ):
        query = heldout_queries[0]
        ref = knn_target_node_access(tardis_small, query, 5)
        [home] = ref.partition_ids_loaded
        with router_factory(
            tardis_small, n_shards=3, replication=0, call_timeout_s=5.0
        ) as (router, cluster):
            cluster.kill_shard(cluster.plan.owner_of(home))
            got = _knn(router, query, strategy="target-node", k=5)
        assert got.degraded
        assert got.missing_partitions == [home]
        assert got.record_ids == []


class TestShardMetrics:
    def test_per_shard_counters_and_gauges(self, tardis_small,
                                           heldout_queries,
                                           router_factory):
        from repro.telemetry.metrics import get_registry

        with router_factory(
            tardis_small, n_shards=2, replication=1, call_timeout_s=5.0
        ) as (router, cluster):
            _knn(router, heldout_queries[0])
            cluster.kill_shard(1)
            router.check_health()  # ping both: marks 1 down, 0 up
            _knn(router, heldout_queries[1])
            registry = get_registry()
            calls = registry.get("serving_shard_requests_total")
            up0 = registry.get("serving_shard_0_up")
            up1 = registry.get("serving_shard_1_up")
        assert calls is not None and calls.value >= 2
        assert up1 is not None and up1.value == 0.0
        assert up0 is not None and up0.value == 1.0


def _counter(name: str) -> float:
    metric = get_registry().get(name)
    return 0.0 if metric is None else metric.value


def _home_load_fails(home: int) -> dict:
    """Every load of ``home`` fails, on every shard that hosts it."""
    return {"schema": "repro.faults/v1", "seed": 0, "rules": [
        {"kind": "partition-load-error", "partition_id": [home],
         "probability": 1},
    ]}


class TestOneOutcomeRule:
    """One rule per outcome at every router→shard call site: a failed
    load excludes that host for good, and a retry is counted only for a
    re-call that happens."""

    @pytest.mark.parametrize(
        "op,strategy",
        [("exact-match", "target-node"), ("knn", "target-node"),
         ("knn", "multi-partitions")],
    )
    def test_home_load_lost_on_every_host(
        self, tardis_small, rw_small, router_factory, op, strategy
    ):
        row = rw_small.values[5]
        [home] = knn_target_node_access(
            tardis_small, row, 10
        ).partition_ids_loaded
        with router_factory(
            tardis_small, n_shards=3, replication=1, call_timeout_s=5.0
        ) as (router, _cluster):
            retries = _counter("serving_shard_retries_total")
            calls = _counter("serving_shard_requests_total")
            request = QueryRequest(row, op=op, strategy=strategy, k=10)
            with active_plan(_home_load_fails(home)) as injector:
                if op == "exact-match":
                    with pytest.raises(PartialResultError) as excinfo:
                        router.query(request, timeout=60)
                    assert excinfo.value.missing_partitions == [home]
                else:
                    got = router.query(request, timeout=60)
                    assert got.degraded
                    assert home in got.missing_partitions
                    assert got.record_ids == []
                loads = injector.stats()["by_kind"]["partition-load-error"]
            retries = _counter("serving_shard_retries_total") - retries
            calls = _counter("serving_shard_requests_total") - calls
        # One call to each of the two hosts (the second a counted
        # retry), each spending its own 4-attempt load budget; then no
        # host is left, so no further retry is counted.
        assert retries == 1
        if strategy != "multi-partitions":
            assert calls == 2
            assert loads == 8

    @pytest.mark.parametrize(
        "strategy,reference",
        [("target-node", knn_target_node_access),
         ("one-partition", knn_one_partition_access)],
    )
    def test_replica_serves_what_the_first_host_lost(
        self, tardis_small, heldout_queries, router_factory, monkeypatch,
        strategy, reference,
    ):
        query = heldout_queries[1]
        want = reference(tardis_small, query, 10)
        home = knn_target_node_access(
            tardis_small, query, 10
        ).partition_ids_loaded[0]
        with router_factory(
            tardis_small, n_shards=3, replication=1, call_timeout_s=5.0
        ) as (router, cluster):
            first = cluster.plan.hosts_of(home)[0]
            view = cluster._shards[first].server.service.index
            load = view.load_partition

            def lose_home(partition_id, *args, **kwargs):
                if partition_id == home:
                    raise PartitionUnavailableError(partition_id, 4)
                return load(partition_id, *args, **kwargs)

            monkeypatch.setattr(view, "load_partition", lose_home)
            got = _knn(router, query, strategy=strategy)
        assert not got.degraded
        assert got.missing_partitions == []
        assert got.record_ids == want.record_ids
        assert got.distances == want.distances

    @pytest.mark.parametrize("replication", [0, 1])
    def test_overloaded_shard_is_a_call_failure(
        self, tardis_small, heldout_queries, router_factory, monkeypatch,
        replication,
    ):
        """A shard shedding load (wire ``overloaded``) is a call failure
        like any other: at R=1 the replica answers; at R=0 the only host
        is re-called once after backoff (the one revisit of an
        all-failed host set), and the forwarded kNN degrades to the
        empty answer."""
        query = heldout_queries[1]
        want = knn_target_node_access(tardis_small, query, 10)
        home = want.partition_ids_loaded[0]
        with router_factory(
            tardis_small, n_shards=3, replication=replication,
            call_timeout_s=5.0,
        ) as (router, cluster):
            first = cluster.plan.hosts_of(home)[0]
            service = cluster._shards[first].server.service

            def shed(_request):
                raise OverloadedError(1, 1)

            monkeypatch.setattr(service, "submit", shed)
            retries = _counter("serving_shard_retries_total")
            calls = _counter("serving_shard_requests_total")
            got = _knn(router, query, strategy="target-node")
            retries = _counter("serving_shard_retries_total") - retries
            calls = _counter("serving_shard_requests_total") - calls
        if replication:
            assert (calls, retries) == (2, 1)
            assert not got.degraded
            assert got.record_ids == want.record_ids
            assert got.distances == want.distances
        else:
            assert (calls, retries) == (2, 1)
            assert got.degraded
            assert got.missing_partitions == [home]
            assert got.record_ids == []

    def test_dead_sole_host_is_called_at_most_twice_a_request(
        self, tardis_small, probes, router_factory, monkeypatch
    ):
        """At R=0 a killed shard is its partitions' only host.  A request
        calls it, revisits the all-failed host set once, and then gives
        the host up for the rest of the request: the MPA scatter after a
        lost seed calls it no more."""
        requests = (
            ("exact-match", "target-node"), ("knn", "target-node"),
            ("knn", "multi-partitions"),
        )
        for dead in range(3):
            with router_factory(
                tardis_small, n_shards=3, call_timeout_s=5.0
            ) as (router, cluster):
                cluster.kill_shard(dead)
                calls = []
                call_once = router._call_once

                def spy(shard_id, *args):
                    calls.append(shard_id)
                    return call_once(shard_id, *args)

                monkeypatch.setattr(router, "_call_once", spy)
                revisited = 0
                for q in probes:
                    for op, strategy in requests:
                        calls.clear()
                        try:
                            router.query(QueryRequest(
                                q, op=op, strategy=strategy, k=10,
                            ), timeout=60)
                        except PartialResultError:
                            pass
                        assert calls.count(dead) <= 2, (op, strategy)
                        revisited += calls.count(dead) == 2
            assert revisited, f"no request reached dead shard {dead}"


class TestGatherPricing:
    """The gather prices region bounds only for partitions it lost."""

    @staticmethod
    def _capped(index, q):
        signature, paa = query_signature(index, q)
        siblings = index.global_index.sibling_partition_ids(signature)
        home, pid_list = select_mpa_partitions(
            index.global_index, signature, index.config.pth,
            bound_of=sibling_bound_lookup(index, signature, paa),
        )
        return siblings, home, pid_list

    @staticmethod
    def _spy(router, monkeypatch) -> list:
        priced = []
        region_bounds = router.index.region_bounds

        def spy(paa, partition_ids=None):
            priced.append(partition_ids)
            return region_bounds(paa, partition_ids)

        monkeypatch.setattr(router.index, "region_bounds", spy)
        return priced

    def test_fault_free_query_within_pth_prices_nothing(
        self, tardis_small, heldout_queries, router_factory, monkeypatch
    ):
        q = next(
            q for q in heldout_queries
            if len(self._capped(tardis_small, q)[0])
            <= tardis_small.config.pth
        )
        with router_factory(tardis_small, n_shards=3) as (router, _):
            priced = self._spy(router, monkeypatch)
            got = _knn(router, q)
        assert not got.degraded
        assert priced == []

    def test_degraded_query_prices_its_missing_partitions(
        self, tardis_small, heldout_queries, router_factory, monkeypatch
    ):
        with router_factory(
            tardis_small, n_shards=3, call_timeout_s=5.0
        ) as (router, cluster):
            owner = cluster.plan.owner_of

            def other_owners(q):
                _siblings, home, pid_list = self._capped(tardis_small, q)
                return [owner(pid) for pid in pid_list
                        if owner(pid) != owner(home)]

            # A query that reaches past its home shard, with one of the
            # shards it reaches dead.
            q, dead = next(
                (q, others[0]) for q in heldout_queries
                if (others := other_owners(q))
            )
            cluster.kill_shard(dead)
            priced = self._spy(router, monkeypatch)
            got = _knn(router, q)
        assert got.degraded
        assert got.missing_partitions
        assert all(owner(pid) == dead for pid in got.missing_partitions)
        assert priced[-1] == got.missing_partitions
