"""One request front-end: a read, a write and a router request are shed
the same way.

``QueryService.submit``, ``QueryService.submit_write`` and
``RouterService.submit`` all admit through
:class:`repro.serving.frontend.RequestFrontEnd`, so an overloaded queue
and an expired deadline must leave the same journal record, SLO counters
and root-span ``error`` attribute whichever door the request came in by.
"""

import threading
import time
from contextlib import contextmanager

import pytest

from repro.serving import QueryRequest, QueryService
from repro.serving.admission import DeadlineExceededError, OverloadedError
from repro.serving.requests import WriteRequest
from repro.sharding import RouterIndex, RouterService, ShardCluster
from repro.telemetry.journal import EventJournal
from repro.telemetry.spans import disable_tracing, enable_tracing


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
        # Hold the (single) consumer inside one window so the queue's
        # state is under the test's control, not the scheduler's.
        entered, release = threading.Event(), threading.Event()
        execute = service._execute_window

        def held_window(window):
            entered.set()
            assert release.wait(30.0)
            execute(window)

        service._execute_window = held_window
        blocker = service.submit(_read(heldout_queries[0]))
        assert entered.wait(30.0)

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
