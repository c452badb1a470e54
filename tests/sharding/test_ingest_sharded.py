"""Write-stream equivalence across deployment shapes.

The same acknowledged write stream applied through a threads-mode
cluster, a processes-mode cluster, and a single-process QueryService
must leave every surface agreeing: assigned record ids, exact-match
answers, MPA kNN answers (including tie-breaks), and the per-shard
record layout implied by Tardis-G routing.
"""

import numpy as np
import pytest

from repro.core import TardisConfig, build_tardis_index
from repro.core.persistence import save_index
from repro.sharding import RouterIndex, RouterService, ShardCluster
from repro.sharding.assignment import plan_shards
from repro.serving import QueryRequest, QueryService, ServingClient, TardisServer
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
