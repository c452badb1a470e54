"""One request front-end: a read, a write and a router request are shed
the same way.

``QueryService.submit``, ``QueryService.submit_write`` and
``RouterService.submit`` all admit through
:class:`repro.serving.frontend.RequestFrontEnd`, so an overloaded queue
and an expired deadline must leave the same journal record, SLO counters
and root-span ``error`` attribute whichever door the request came in by.

The door itself holds nobody: a window is the first ticket plus what
queued behind it while the consumer was busy (natural batching), so a
lone request on a default-constructed tier meets no timed wait, and a
backlog still comes out as full windows that share one WAL fsync.
"""

import threading
import time
from contextlib import contextmanager

import pytest

from repro.core import TardisConfig, WriteAheadLog, build_tardis_index
from repro.serving import QueryRequest, QueryService, ServingClient
from repro.serving.admission import (
    AdmissionQueue,
    DeadlineExceededError,
    OverloadedError,
)
from repro.serving.requests import WriteRequest
from repro.sharding import RouterIndex, RouterService, ShardCluster
from repro.sharding.shard import ShardService, subset_index
from repro.telemetry.journal import EventJournal
from repro.telemetry.spans import disable_tracing, enable_tracing
from repro.tsdb import random_walk


@pytest.fixture()
def tracer():
    tracer = enable_tracing(reset=True)
    yield tracer
    disable_tracing()


@contextmanager
def _query_service(index):
    with QueryService(
        index, queue_capacity=1, policy="shed", max_delay_ms=0.0,
        result_cache_size=None, journal=EventJournal(),
    ) as service:
        yield service


@contextmanager
def _router_service(index):
    with ShardCluster.for_index(
        index, 2, 0, mode="threads",
        service_kwargs={"result_cache_size": None, "max_delay_ms": 1.0},
    ) as cluster:
        with RouterService(
            RouterIndex.from_index(index), cluster.plan, cluster.addresses,
            queue_capacity=1, policy="shed", workers=1,
            result_cache_size=None, health_interval_s=0.0,
            journal=EventJournal(),
        ) as router:
            yield router


def _read(series, deadline_ms=None):
    return QueryRequest(series, op="knn", strategy="target-node", k=3,
                        deadline_ms=deadline_ms)


def _write(series, deadline_ms=None):
    return WriteRequest(batch=series, deadline_ms=deadline_ms)


def _hold_consumer(service, series):
    """Submit one read and hold the (single) consumer inside its window,
    so the queue's state is under the test's control, not the
    scheduler's.  Returns the read's future and the event that lets the
    consumer go."""
    entered, release = threading.Event(), threading.Event()
    execute = service._execute_window

    def held_window(window):
        entered.set()
        assert release.wait(30.0)
        execute(window)

    service._execute_window = held_window
    blocker = service.submit(_read(series))
    assert entered.wait(30.0)
    return blocker, release


KINDS = {
    # kind: (service, submit method, request factory, op, root span name)
    "read": (_query_service, "submit", _read, "knn", "serve/request"),
    "write": (_query_service, "submit_write", _write, "write", "serve/write"),
    "router": (_router_service, "submit", _read, "knn", "serve/request"),
}


@pytest.mark.parametrize("kind", KINDS)
def test_overload_and_deadline_shed_alike(
    kind, tracer, tardis_small, heldout_queries
):
    make_service, method, make_request, op, root_name = KINDS[kind]
    with make_service(tardis_small) as service:
        blocker, release = _hold_consumer(service, heldout_queries[0])

        submit = getattr(service, method)
        doomed = submit(make_request(heldout_queries[1], deadline_ms=1.0))
        with pytest.raises(OverloadedError):  # the queue holds `doomed`
            submit(make_request(heldout_queries[2]))
        time.sleep(0.005)  # let the 1 ms budget run out in the queue
        release.set()
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=30.0)
        assert blocker.result(timeout=30.0).record_ids
        report = service.stats()
        journal = service.journal

    assert {
        key: report[key] for key in (
            "requests_shed", "requests_deadline_shed",
            "requests_completed", "requests_failed",
        )
    } == {
        "requests_shed": 1, "requests_deadline_shed": 1,
        "requests_completed": 1, "requests_failed": 0,
    }
    [shed] = journal.tail(kind="shed")
    assert (shed["op"], shed["queue_depth"]) == (op, 1)
    [expired] = journal.tail(kind="deadline")
    assert expired["op"] == op
    assert expired["deadline_ms"] == pytest.approx(1.0)
    assert expired["waited_ms"] >= expired["deadline_ms"]
    # Neither ever executed: their traces are a root closed with the
    # error and a queue-wait child carrying the same tag, nothing else.
    errors = {}
    for root in tracer.roots:
        if "error" in root.attributes:
            assert root.name == root_name
            assert [(c.name, c.attributes["error"]) for c in root.children] \
                == [("serve/queue-wait", root.attributes["error"])]
            errors[root.attributes["error"]] = root.trace_id
    assert errors == {
        "overloaded": shed["trace_id"], "deadline": expired["trace_id"],
    }


# -- natural batching -------------------------------------------------------

LENGTH = 48


@pytest.fixture()
def private_index():
    # Writes mutate the index: never the shared session-scoped build.
    dataset = random_walk(400, length=LENGTH, seed=21).z_normalized()
    return build_tardis_index(
        dataset, TardisConfig(g_max_size=100, l_max_size=20, seed=9)
    )


@pytest.fixture()
def stream():
    return random_walk(8, length=LENGTH, seed=22).z_normalized().values


@pytest.fixture()
def timed_waits(monkeypatch):
    """The timeout of every *timed* wait on the ``_not_empty`` condition
    of any admission queue built during the test (the untimed block for
    a window's first ticket is not a hold and is not recorded)."""
    timed: list = []
    init = AdmissionQueue.__init__

    def spied_init(queue, *args, **kwargs):
        init(queue, *args, **kwargs)
        wait = queue._not_empty.wait

        def spy(timeout=None):
            if timeout is not None:
                timed.append(timeout)
            return wait(timeout)

        queue._not_empty.wait = spy

    monkeypatch.setattr(AdmissionQueue, "__init__", spied_init)
    return timed


def _exact(series):
    return QueryRequest(series, op="exact-match")


def test_front_door_is_flat(private_index, stream, timed_waits):
    """On a default-constructed QueryService, ShardService and
    RouterService (over default-constructed shards) a lone read and a
    lone write are each executed the moment they are admitted: no tier
    holds a request for a neighbour that is not there.  Counts only."""
    index = private_index
    with QueryService(index) as service:
        assert service.submit(_exact(stream[0])).result(30.0) is not None
        assert service.write(stream[0:1]).acknowledged == 1
        assert service.stats()["config"]["max_delay_ms"] == 0.0
    with ShardService(subset_index(index, index.partitions)) as shard:
        assert shard.submit(_exact(stream[1])).result(30.0) is not None
        assert shard.write(stream[1:2]).acknowledged == 1
        assert shard.stats()["config"]["max_delay_ms"] == 0.0
    with ShardCluster.for_index(index, 2, 0, mode="threads") as cluster:
        with RouterService(
            RouterIndex.from_index(index), cluster.plan, cluster.addresses,
        ) as router:
            assert router.submit(_read(stream[2])).result(30.0).record_ids
            ack = router.extra_ops["write"]({"series": stream[2].tolist()})
            assert len(ack["record_ids"]) == 1
            assert "max_delay_ms" not in router.stats()["config"]
        for host, port in cluster.addresses:
            with ServingClient(host, port) as client:
                assert client.stats()["config"]["max_delay_ms"] == 0.0
    assert timed_waits == []


def test_windows_form_from_backlog(private_index, stream, tmp_path):
    """What queues while the consumer is busy comes out as windows of
    ``min(backlog, max_batch)`` in admission order; a window's writes
    land before its reads and are acknowledged after its one WAL fsync;
    a ticket whose budget ran out in the queue is shed at dequeue."""
    wal = WriteAheadLog(tmp_path / "backlog.wal")
    syncs: list = []
    sync = wal.sync
    wal.sync = lambda: (syncs.append(None), sync())[1]
    with QueryService(
        private_index, max_batch=4, result_cache_size=None, wal=wal,
        journal=EventJournal(),
    ) as service:
        blocker, release = _hold_consumer(service, stream[0])
        windows: list = []
        take_batch = service.queue.take_batch

        def recording_take(max_batch, max_delay_s):
            window = take_batch(max_batch, max_delay_s)
            if window:
                windows.append([order[id(t.request)] for t in window])
            return window

        service.queue.take_batch = recording_take
        backlog = [
            _exact(stream[1]),                # admitted before its write
            _write(stream[1:2]),
            _read(stream[7], deadline_ms=0.01),  # expires while queued
            _write(stream[2:3]),
            # -- max_batch --
            _exact(stream[2]),
            _write(stream[3:4]),
        ]
        order = {id(request): i for i, request in enumerate(backlog)}
        syncs_at_finish: dict = {}
        futures = []
        for request in backlog:
            submit = (
                service.submit_write if isinstance(request, WriteRequest)
                else service.submit
            )
            future = submit(request)
            future.add_done_callback(
                lambda _f, i=order[id(request)]: syncs_at_finish.update(
                    {i: len(syncs)}
                )
            )
            futures.append(future)
        release.set()
        assert blocker.result(30.0).record_ids
        with pytest.raises(DeadlineExceededError):
            futures[2].result(30.0)
        results = [
            future.result(30.0) for i, future in enumerate(futures) if i != 2
        ]
        report = service.stats()
    wal.close()
    assert windows == [[0, 1, 2, 3], [4, 5]]
    early_read, first_write, second_write, late_read, third_write = results
    # Writes first: the read admitted ahead of its write still finds it.
    assert early_read.found and late_read.found
    assert first_write.durable and second_write.durable
    # One fsync per window, after its reads and before its write acks;
    # the expired ticket finished without one.
    assert syncs_at_finish == {0: 0, 1: 1, 2: 0, 3: 1, 4: 1, 5: 2}
    assert len(syncs) == 2
    assert report["requests_deadline_shed"] == 1
    assert report["requests_completed"] == 6
    assert report["ingest"]["writes_total"] == 3


@pytest.mark.parametrize("max_batch", [1, 8])
def test_a_window_shares_partition_loads(private_index, stream, max_batch):
    """Eight target-node reads queued behind a busy consumer: one at a
    time each loads its partition; as one window they load each partition
    once, so loads per query drop below one.  Per-result accounting is
    unchanged either way.  Counts only."""
    with QueryService(
        private_index, max_batch=max_batch, result_cache_size=None,
        journal=EventJournal(),
    ) as service:
        blocker, release = _hold_consumer(service, stream[0])
        futures = [service.submit(_read(series)) for series in stream]
        release.set()
        results = [future.result(30.0) for future in futures]
        assert blocker.result(30.0).record_ids
        report = service.stats()
    assert [r.partitions_loaded for r in results] == [1] * len(stream)
    if max_batch == 1:
        assert report["partitions_per_query"] == 1.0
    else:
        assert report["partitions_per_query"] < 1.0
