"""Streaming writes through the serving tier: wire ops, durability
ordering, ingest accounting, and cache coherence under writes."""

import numpy as np
import pytest

from repro.core import (
    TardisConfig,
    WriteAheadLog,
    build_tardis_index,
    exact_match,
    read_wal,
    replay_wal,
)
from repro.serving import QueryRequest, QueryService, ServingClient, TardisServer
from repro.serving.requests import WriteRequest
from repro.tsdb import random_walk

LENGTH = 48
BASE_N = 400


@pytest.fixture()
def dataset():
    return random_walk(BASE_N, length=LENGTH, seed=21).z_normalized()


@pytest.fixture()
def stream():
    return random_walk(30, length=LENGTH, seed=22).z_normalized().values


@pytest.fixture()
def index(dataset):
    # Private per-test build: writes mutate the index, so the shared
    # session-scoped fixtures must never be used here.
    config = TardisConfig(g_max_size=100, l_max_size=20, seed=9)
    return build_tardis_index(dataset, config)


def service(index, **kwargs):
    kwargs.setdefault("max_batch", 8)
    kwargs.setdefault("max_delay_ms", 1.0)
    return QueryService(index, **kwargs)


class TestWriteOps:
    def test_write_then_query_roundtrip(self, index, stream):
        with service(index) as svc:
            ack = svc.write(stream[:4])
            assert ack.acknowledged == 4
            assert ack.record_ids == list(range(BASE_N, BASE_N + 4))
            assert not ack.durable  # no WAL configured
            got = svc.query(QueryRequest(stream[0], op="exact-match"))
            assert BASE_N in got.record_ids

    def test_write_batch_is_converted_and_routed_once(
        self, index, stream, tmp_path
    ):
        """The route-before-WAL step hands its conversion to the apply:
        a durable write_batch of n rows is n rows of PAA/encode work, and
        the order route → WAL → apply still rejects before logging."""
        from repro.telemetry.perf import (
            KERNELS, disable_kernel_counters, enable_kernel_counters,
        )

        with service(index, wal=tmp_path / "w.wal") as svc:
            enable_kernel_counters(reset=True)
            try:
                ack = svc.write(stream[:8])
            finally:
                disable_kernel_counters()
            totals = KERNELS.totals()
            KERNELS.reset()
        assert ack.durable and ack.acknowledged == 8
        assert totals["paa"]["elements"] == 8 * LENGTH
        assert totals["encode"]["elements"] == 8 * index.config.word_length
        assert ack.partition_ids == index.route_batch(stream[:8])

    def test_reads_and_writes_interleave_in_one_window(self, index, stream):
        with service(index, max_batch=32, max_delay_ms=5.0) as svc:
            futures = []
            for i in range(8):
                futures.append(svc.submit_write(
                    WriteRequest(batch=stream[i:i + 1])))
                futures.append(svc.submit(
                    QueryRequest(stream[i], op="exact-match")))
            results = [f.result(timeout=30.0) for f in futures]
        # Writes in a window apply before its reads: every read of the
        # just-written series finds it.
        for i, got in enumerate(results[1::2]):
            assert (BASE_N + i) in got.record_ids

    def test_bad_shape_rejected_before_wal(self, index, tmp_path, stream):
        wal_path = tmp_path / "w.wal"
        with service(index, wal=wal_path) as svc:
            with pytest.raises(ValueError):
                svc.write(np.zeros((2, LENGTH + 3)))
            before = read_wal(wal_path)[0]
            ack = svc.write(stream[:1])
            assert ack.durable
        # The rejected batch never reached the log.
        records, _ = read_wal(wal_path)
        assert len(records) == len(before) + 1

    def test_ingest_stats_and_metrics(self, index, stream):
        with service(index) as svc:
            svc.write(stream[:3])
            svc.write(stream[3:5])
            report = svc.stats()
        ingest = report["ingest"]
        assert ingest["writes_total"] == 2
        assert ingest["write_records_total"] == 5
        assert ingest["writes_failed"] == 0
        assert ingest["wal"] is None


class TestDurabilityOrdering:
    def test_ack_implies_logged(self, index, tmp_path, stream):
        wal_path = tmp_path / "order.wal"
        with service(index, wal=wal_path) as svc:
            ack = svc.write(stream[:6])
            assert ack.durable
            records, torn = read_wal(wal_path)
            assert not torn
            logged_ids = [r["record_id"] for r in records
                          if r["kind"] == "append"]
            # Every acknowledged id is already on disk at ack time.
            assert set(ack.record_ids) <= set(logged_ids)
            report = svc.stats()
            assert report["ingest"]["wal"]["appends_logged"] == 6

    def test_replay_recovers_acked_writes(self, index, dataset,
                                          tmp_path, stream):
        wal_path = tmp_path / "recover.wal"
        with service(index, wal=wal_path) as svc:
            acked = svc.write(stream).record_ids
        fresh = build_tardis_index(
            dataset, TardisConfig(g_max_size=100, l_max_size=20, seed=9)
        )
        report = replay_wal(fresh, wal_path)
        assert report.record_ids == acked
        fresh.validate()
        for i, row in enumerate(stream):
            assert acked[i] in exact_match(fresh, row).record_ids

    def test_external_wal_not_closed_by_service(self, index, tmp_path,
                                                stream):
        wal = WriteAheadLog(tmp_path / "shared.wal")
        with service(index, wal=wal) as svc:
            svc.write(stream[:2])
        # Caller-owned log: the service must not close it on stop.
        wal.log_appends([(999, stream[2])])
        wal.close()


class TestCacheCoherence:
    def test_knn_cache_invalidated_by_write(self, index, stream):
        """Regression: a cached kNN answer whose candidate set a new
        record would change must be invalidated by the write — the old
        bug only dropped the exact-match negative-cache entry."""
        query = stream[7]
        with service(index, result_cache_size=64) as svc:
            request = QueryRequest(
                query, op="knn", strategy="multi-partitions", k=5
            )
            before = svc.query(request)
            cached = svc.query(request)  # now served from the cache
            assert cached.record_ids == before.record_ids
            # Writing the query series itself creates a distance-zero
            # neighbor that must displace the cached top-k.
            ack = svc.write(query[np.newaxis, :])
            after = svc.query(request)
        assert ack.record_ids[0] in after.record_ids
        assert after.record_ids != before.record_ids

    def test_exact_negative_cache_invalidated(self, index, stream):
        probe = stream[11]
        with service(index, result_cache_size=64) as svc:
            request = QueryRequest(probe, op="exact-match")
            miss = svc.query(request)
            assert not miss.found
            svc.write(probe[np.newaxis, :])
            hit = svc.query(request)
            assert hit.found


class TestWireProtocol:
    def test_write_ops_over_socket(self, index, stream):
        with service(index) as svc:
            server = TardisServer(svc, "127.0.0.1", 0)
            server.start()
            host, port = server.address
            try:
                with ServingClient(host, port) as client:
                    one = client.write(stream[0])
                    assert one["record_ids"] == [BASE_N]
                    assert one["partition_ids"]
                    many = client.write_batch(stream[1:4].tolist())
                    assert many["record_ids"] == [
                        BASE_N + 1, BASE_N + 2, BASE_N + 3
                    ]
                    found = client.exact_match(stream[2])
                    assert (BASE_N + 2) in found["record_ids"]
            finally:
                server.close(drain=True)

    def test_wire_rejects_bad_write(self, index):
        with service(index) as svc:
            server = TardisServer(svc, "127.0.0.1", 0)
            server.start()
            host, port = server.address
            try:
                with ServingClient(host, port) as client:
                    with pytest.raises(RuntimeError):
                        client.write([1.0, 2.0, 3.0])  # wrong length
            finally:
                server.close(drain=True)
