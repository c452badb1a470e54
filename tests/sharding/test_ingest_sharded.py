"""Write-stream equivalence across deployment shapes.

The same acknowledged write stream applied through a threads-mode
cluster, a processes-mode cluster, and a single-process QueryService
must leave every surface agreeing: assigned record ids, exact-match
answers, MPA kNN answers (including tie-breaks), and the per-shard
record layout implied by Tardis-G routing.
"""

import time

import numpy as np
import pytest

from repro.core import TardisConfig, build_tardis_index
from repro.core.persistence import save_index
from repro.sharding import RouterIndex, RouterService, ShardCluster
from repro.sharding.assignment import plan_shards
from repro.serving import QueryRequest, QueryService, ServingClient, TardisServer
from repro.serving.admission import DeadlineExceededError
from repro.tsdb import random_walk

LENGTH = 48
BASE_N = 600
N_SHARDS = 3
K = 5

_config = dict(g_max_size=100, l_max_size=20, pth=4, seed=17)


@pytest.fixture(scope="module")
def ingest_dataset():
    return random_walk(BASE_N, length=LENGTH, seed=41).z_normalized()


@pytest.fixture(scope="module")
def write_stream():
    return random_walk(60, length=LENGTH, seed=42).z_normalized().values


@pytest.fixture(scope="module")
def probes():
    return random_walk(5, length=LENGTH, seed=43).z_normalized().values


def fresh_index(dataset):
    return build_tardis_index(dataset, TardisConfig(**_config))


def batches(stream, size=6):
    return [stream[i:i + size] for i in range(0, len(stream), size)]


@pytest.fixture(scope="module")
def reference(ingest_dataset, write_stream, probes):
    """Single-process serving over the same write stream."""
    index = fresh_index(ingest_dataset)
    acks, routes = [], []
    with QueryService(index, max_delay_ms=1.0,
                      result_cache_size=None) as svc:
        for chunk in batches(write_stream):
            routes.append(index.prepare_batch(chunk).partition_ids)
            acks.append(svc.write(chunk).record_ids)
        exact = [
            sorted(svc.query(QueryRequest(row, op="exact-match")).record_ids)
            for row in write_stream[:8]
        ]
        knn = [
            (svc.query(q).record_ids, svc.query(q).distances)
            for q in (
                QueryRequest(p, op="knn", strategy="multi-partitions", k=K)
                for p in probes
            )
        ]
    counts = {pid: p.n_records for pid, p in index.partitions.items()}
    return {"acks": acks, "routes": routes, "exact": exact, "knn": knn,
            "counts": counts}


def drive_cluster(router, reference, write_stream, probes):
    """Write the stream through the router's wire ops, then compare
    every read surface against the single-process reference."""
    server = TardisServer(router, "127.0.0.1", 0)
    server.start()
    host, port = server.address
    try:
        with ServingClient(host, port) as client:
            for chunk, want_ids, want_pids in zip(
                batches(write_stream), reference["acks"], reference["routes"]
            ):
                ack = client.write_batch(chunk.tolist())
                assert ack["record_ids"] == want_ids
                # The router routes a batch as the index does.
                assert ack["partition_ids"] == want_pids
                assert not ack.get("replicas_failed")
            got_exact = [
                sorted(client.exact_match(row)["record_ids"])
                for row in write_stream[:8]
            ]
            assert got_exact == reference["exact"]
            for probe, (want_ids, want_dists) in zip(probes,
                                                     reference["knn"]):
                got = client.knn(probe, k=K, strategy="multi-partitions")
                assert got["record_ids"] == want_ids
                assert got["distances"] == pytest.approx(want_dists)
        ingest = router.stats()["ingest"]
        assert ingest["writes_failed"] == 0
        assert ingest["write_records_total"] == len(write_stream)
    finally:
        server.close(drain=True)


def shard_layout(cluster, plan):
    """Per-shard record totals scraped from the live shard services."""
    totals = {}
    for shard_id, (host, port) in enumerate(cluster.addresses):
        with ServingClient(host, port) as client:
            report = client.stats()
        totals[shard_id] = report["shard"]["n_records"]
    return totals


def expected_layout(plan, counts):
    return {
        shard_id: sum(counts[pid] for pid in plan.hosted(shard_id))
        for shard_id in range(plan.n_shards)
    }


def test_threads_cluster_matches_single_process(
    ingest_dataset, write_stream, probes, reference
):
    index = fresh_index(ingest_dataset)
    with ShardCluster.for_index(
        index, N_SHARDS, replication=1, mode="threads",
        service_kwargs={"result_cache_size": None, "max_delay_ms": 1.0},
    ) as cluster:
        with RouterService(
            RouterIndex.from_index(index), cluster.plan, cluster.addresses,
            result_cache_size=None, health_interval_s=0.0,
        ) as router:
            drive_cluster(router, reference, write_stream, probes)
            got = shard_layout(cluster, cluster.plan)
    # Threads mode shares partition objects between replicas, so the
    # routed rows land exactly where the single-process build puts them.
    assert got == expected_layout(cluster.plan, reference["counts"])


def test_processes_cluster_matches_single_process(
    ingest_dataset, write_stream, probes, reference, tmp_path_factory
):
    index = fresh_index(ingest_dataset)
    index_dir = tmp_path_factory.mktemp("ingest-shards") / "index"
    save_index(index, index_dir)
    plan = plan_shards(
        {pid: p.n_records for pid, p in index.partitions.items()},
        2, replication=1,
    )
    with ShardCluster(
        plan, mode="processes", index_dir=str(index_dir),
        service_kwargs={"result_cache_size": None, "max_delay_ms": 1.0},
    ) as cluster:
        with RouterService(
            RouterIndex.from_index(index), plan, cluster.addresses,
            result_cache_size=None, call_timeout_s=15.0,
            health_interval_s=0.0,
        ) as router:
            drive_cluster(router, reference, write_stream, probes)
            got = shard_layout(cluster, plan)
    assert got == expected_layout(plan, reference["counts"])


def test_router_names_the_row_that_routes_off_cluster(
    ingest_dataset, write_stream
):
    """A write batch with a row homed on a partition the cluster does not
    hold fails whole, naming the first such row."""
    index = fresh_index(ingest_dataset)
    batch = write_stream[:6]
    routes = index.prepare_batch(batch).partition_ids
    lost = routes[3]
    router_index = RouterIndex.from_index(index)
    del router_index.synopses[lost]
    plan = plan_shards({pid: 1 for pid in index.partitions}, N_SHARDS)
    router = RouterService(
        router_index, plan, [("127.0.0.1", 9)] * N_SHARDS,
        result_cache_size=None, health_interval_s=0.0,
    )
    with pytest.raises(
        ValueError,
        match=f"row {routes.index(lost)} routes to partition {lost}, "
              f"which is not present in this cluster",
    ):
        router._op_write({"op": "write-batch", "batch": batch.tolist()})


def test_spent_write_budget_is_a_deadline_error(ingest_dataset, write_stream):
    """A router write whose budget runs out fails with wire type
    ``deadline`` — when the check before a shard call fails, and when
    the budget is spent by a failed call before its retry."""
    index = fresh_index(ingest_dataset)
    with ShardCluster.for_index(
        index, N_SHARDS, replication=0, mode="threads",
        service_kwargs={"result_cache_size": None, "max_delay_ms": 1.0},
    ) as cluster:
        with RouterService(
            RouterIndex.from_index(index), cluster.plan, cluster.addresses,
            result_cache_size=None, health_interval_s=0.0,
        ) as router:
            server = TardisServer(router, "127.0.0.1", 0)
            server.start()
            host, port = server.address
            try:
                with ServingClient(host, port) as client:
                    with pytest.raises(DeadlineExceededError):
                        client.write_batch(write_stream[:6], deadline_ms=1e-6)

                    def stall(doc):
                        time.sleep(0.05)
                        raise RuntimeError("stalled write")

                    for shard in cluster._shards:
                        shard.server.service.extra_ops["write-batch"] = stall
                    with pytest.raises(DeadlineExceededError):
                        client.write_batch(write_stream[:6], deadline_ms=20.0)
                assert router.stats()["ingest"]["writes_failed"] == 2
            finally:
                server.close(drain=True)


def test_rows_acked_before_a_spent_budget_reach_the_router(
    ingest_dataset, write_stream
):
    """R=1: the first replica of the batch's first partition applies the
    rows but acks only after the budget is spent, so the second leg
    raises ``deadline``.  The acked rows must still reach the router's
    synopsis (its MINDIST bounds stay sound) and MPA must find them."""
    index = fresh_index(ingest_dataset)
    batch = write_stream[:6]
    pid = index.prepare_batch(batch).partition_ids[0]
    with ShardCluster.for_index(
        index, N_SHARDS, replication=1, mode="threads",
        service_kwargs={"result_cache_size": None, "max_delay_ms": 1.0},
    ) as cluster:
        first = cluster.plan.hosts_of(pid)[0]
        service = cluster._shards[first].server.service
        write = service.extra_ops["write-batch"]

        def slow_ack(doc):
            ack = write(doc)
            time.sleep(0.2)
            return ack

        service.extra_ops["write-batch"] = slow_ack
        with RouterService(
            RouterIndex.from_index(index), cluster.plan, cluster.addresses,
            result_cache_size=None, health_interval_s=0.0,
        ) as router:
            before = router.index.synopses[pid].to_dict()
            with pytest.raises(DeadlineExceededError):
                router._op_write({
                    "op": "write-batch", "batch": batch.tolist(),
                    "deadline_ms": 100.0,
                })
            # Threads-mode shards share the partition objects, so the
            # index itself now holds exactly what the first replica took.
            truth = RouterIndex.from_index(index).synopses[pid].to_dict()
            assert truth != before
            assert router.index.synopses[pid].to_dict() == truth
            row = int(np.flatnonzero(
                np.asarray(index.prepare_batch(batch).partition_ids) == pid
            )[0])
            answer = router.query(QueryRequest(
                batch[row], op="knn", strategy="multi-partitions", k=K,
            ))
            assert not answer.degraded
            assert answer.distances[0] == 0.0
