"""Admission queue and deadline budget: backpressure, batching, shedding."""

import threading
import time

import numpy as np
import pytest

from repro.serving.admission import (
    AdmissionQueue,
    DeadlineExceededError,
    OverloadedError,
)


class TestPut:
    def test_fifo_order(self):
        queue = AdmissionQueue(8)
        for i in range(5):
            queue.put(i)
        assert queue.take_batch(8, 0.0) == [0, 1, 2, 3, 4]

    def test_shed_raises_structured_error(self):
        queue = AdmissionQueue(2, policy="shed")
        queue.put("a")
        queue.put("b")
        with pytest.raises(OverloadedError) as excinfo:
            queue.put("c")
        assert excinfo.value.depth == 2
        assert excinfo.value.capacity == 2
        assert "shed" in str(excinfo.value)

    def test_block_waits_for_space(self):
        queue = AdmissionQueue(1, policy="block")
        queue.put("first")
        admitted = threading.Event()

        def producer():
            queue.put("second")  # blocks until the consumer takes
            admitted.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert not admitted.wait(0.05)  # still blocked: queue full
        assert queue.take_batch(1, 0.0) == ["first"]
        assert admitted.wait(2.0)
        thread.join(2.0)
        assert queue.take_batch(1, 0.0) == ["second"]

    def test_block_with_timeout_sheds(self):
        queue = AdmissionQueue(1, policy="block")
        queue.put("only")
        with pytest.raises(OverloadedError):
            queue.put("late", timeout=0.05)

    def test_put_after_close_rejected(self):
        queue = AdmissionQueue(4)
        queue.close()
        with pytest.raises(RuntimeError):
            queue.put("x")

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)
        with pytest.raises(ValueError):
            AdmissionQueue(4, policy="panic")


class TestTakeBatch:
    def test_respects_max_batch(self):
        queue = AdmissionQueue(16)
        for i in range(10):
            queue.put(i)
        assert queue.take_batch(4, 0.0) == [0, 1, 2, 3]
        assert queue.take_batch(4, 0.0) == [4, 5, 6, 7]

    def test_flush_timer_bounds_wait(self):
        queue = AdmissionQueue(16)
        queue.put("lonely")
        start = time.monotonic()
        batch = queue.take_batch(8, 0.05)
        elapsed = time.monotonic() - start
        assert batch == ["lonely"]
        assert elapsed < 1.0  # returned at the timer, not forever

    def test_collects_arrivals_within_window(self):
        queue = AdmissionQueue(16)
        queue.put("early")

        def late_producer():
            time.sleep(0.02)
            queue.put("late")

        thread = threading.Thread(target=late_producer, daemon=True)
        thread.start()
        batch = queue.take_batch(8, 0.5)
        thread.join(2.0)
        assert batch == ["early", "late"]

    def test_blocks_until_first_item(self):
        queue = AdmissionQueue(4)
        result: list = []

        def consumer():
            result.extend(queue.take_batch(4, 0.01))

        thread = threading.Thread(target=consumer, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert result == []  # still waiting for the first item
        queue.put("now")
        thread.join(2.0)
        assert result == ["now"]

    def test_linger_is_measured_from_arrival(self, monkeypatch):
        """Regression: the timer used to start when the consumer *took*
        the first ticket, so one that had already queued behind a busy
        consumer for longer than the linger was held the linger again.
        Counts, not the clock: a fake clock, and a wait that only
        advances it."""
        import types

        clock = types.SimpleNamespace(now=100.0)
        monkeypatch.setattr(
            "repro.serving.admission.time",
            types.SimpleNamespace(monotonic=lambda: clock.now),
        )
        queue = AdmissionQueue(16)
        waits: list = []

        def wait(timeout=None):
            waits.append(timeout)
            clock.now += timeout
            return False

        queue._not_empty.wait = wait
        queue.put("aged")
        clock.now += 0.2  # the consumer was busy for 4x the linger
        assert queue.take_batch(8, 0.05) == ["aged"]
        assert waits == []  # the linger was spent in the queue
        # A ticket taken 20 ms after it arrived is held the remaining
        # 30 ms of a 50 ms linger, not 50 more.
        queue.put("fresh")
        clock.now += 0.02
        assert queue.take_batch(8, 0.05) == ["fresh"]
        assert waits == [pytest.approx(0.03)]


class TestDeadlineBudget:
    """Per-request deadline: queue wait counts, expired work is cancelled
    at dequeue — before grouping or execution — and counted apart from
    capacity sheds and failures."""

    def _service(self, index, **kwargs):
        from repro.serving.service import QueryService
        from repro.telemetry.journal import EventJournal

        kwargs.setdefault("max_batch", 8)
        kwargs.setdefault("result_cache_size", 0)
        kwargs.setdefault("journal", EventJournal())
        return QueryService(index, **kwargs)

    def test_error_carries_waited_and_deadline(self):
        error = DeadlineExceededError(waited_s=0.05, deadline_s=0.01)
        assert error.waited_s == 0.05
        assert error.deadline_s == 0.01
        assert "10.0ms" in str(error)
        assert "50.0ms" in str(error)

    def test_expired_request_shed_never_executed(
        self, tardis_small, heldout_queries
    ):
        from repro.serving.requests import QueryRequest

        # A 10 µs budget against a 40 ms flush window: the deadline is
        # long gone when the batcher dequeues.
        svc = self._service(tardis_small, max_delay_ms=40.0)
        with svc:
            future = svc.submit(QueryRequest(
                heldout_queries[0], op="knn", strategy="target-node", k=5,
                deadline_ms=0.01,
            ))
            with pytest.raises(DeadlineExceededError) as excinfo:
                future.result(timeout=30.0)
        assert excinfo.value.waited_s >= excinfo.value.deadline_s
        report = svc.stats()
        assert report["requests_deadline_shed"] == 1
        assert report["requests_shed"] == 0
        assert report["requests_failed"] == 0
        assert report["requests_completed"] == 0
        # Never grouped, never executed: no batch ran, nothing loaded.
        assert report["batches"] == 0
        assert report["partition_loads"] == 0
        kinds = svc.journal.stats()["by_kind"]
        assert kinds.get("deadline") == 1

    def test_live_siblings_survive_an_expired_ticket(
        self, tardis_small, heldout_queries
    ):
        from repro.core import knn_target_node_access
        from repro.serving.requests import QueryRequest

        ref = knn_target_node_access(tardis_small, heldout_queries[1], 5)
        svc = self._service(tardis_small, max_delay_ms=40.0)
        with svc:
            doomed = svc.submit(QueryRequest(
                heldout_queries[0], op="knn", strategy="target-node", k=5,
                deadline_ms=0.01,
            ))
            live = svc.submit(QueryRequest(
                heldout_queries[1], op="knn", strategy="target-node", k=5,
            ))
            result = live.result(timeout=30.0)
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=30.0)
        assert result.record_ids == ref.record_ids
        report = svc.stats()
        assert report["requests_completed"] == 1
        assert report["requests_deadline_shed"] == 1
        # Batch accounting sees only the live ticket.
        assert report["batch_occupancy_mean"] == pytest.approx(1.0)

    def test_generous_deadline_executes_normally(
        self, tardis_small, heldout_queries
    ):
        from repro.serving.requests import QueryRequest

        svc = self._service(tardis_small, max_delay_ms=1.0)
        with svc:
            result = svc.query(QueryRequest(
                heldout_queries[2], op="knn", strategy="target-node", k=5,
                deadline_ms=60_000.0,
            ), timeout=30.0)
        assert result.record_ids
        report = svc.stats()
        assert report["requests_deadline_shed"] == 0
        assert report["requests_completed"] == 1

    def test_service_default_deadline_applies(
        self, tardis_small, heldout_queries
    ):
        from repro.serving.requests import QueryRequest

        svc = self._service(
            tardis_small, max_delay_ms=40.0, default_deadline_ms=0.01
        )
        with svc:
            # No per-request deadline: the service default sheds it.
            doomed = svc.submit(QueryRequest(
                heldout_queries[3], op="knn", strategy="target-node", k=5,
            ))
            # An explicit generous budget overrides the default.
            live = svc.submit(QueryRequest(
                heldout_queries[4], op="knn", strategy="target-node", k=5,
                deadline_ms=60_000.0,
            ))
            assert live.result(timeout=30.0).record_ids
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=30.0)
        assert svc.stats()["config"]["default_deadline_ms"] == \
            pytest.approx(0.01)

    def test_deadline_not_part_of_cache_identity(self, heldout_queries):
        from repro.serving.requests import QueryRequest

        with_deadline = QueryRequest(
            heldout_queries[0], op="knn", strategy="target-node", k=5,
            deadline_ms=100.0,
        )
        without = QueryRequest(
            heldout_queries[0], op="knn", strategy="target-node", k=5,
        )
        assert with_deadline.cache_key() == without.cache_key()
        assert with_deadline.plan_key() == without.plan_key()

    def test_invalid_deadline_rejected(self, heldout_queries):
        from repro.serving.requests import QueryRequest

        with pytest.raises(ValueError, match="deadline_ms"):
            QueryRequest(heldout_queries[0], deadline_ms=0.0)
        with pytest.raises(ValueError, match="deadline_ms"):
            QueryRequest(heldout_queries[0], deadline_ms=-5.0)

    def test_deadline_error_crosses_the_wire(
        self, tardis_small, heldout_queries
    ):
        from repro.serving.server import ServingClient, TardisServer

        svc = self._service(tardis_small, max_delay_ms=40.0)
        with TardisServer(svc) as server:
            host, port = server.address
            with ServingClient(host, port, timeout=10.0) as client:
                with pytest.raises(DeadlineExceededError) as excinfo:
                    client.knn(
                        np.asarray(heldout_queries[0]), k=5,
                        strategy="target-node", deadline_ms=0.01,
                    )
        assert excinfo.value.deadline_s == pytest.approx(1e-5)
        assert excinfo.value.waited_s >= excinfo.value.deadline_s


class TestDrain:
    def test_close_lets_consumer_drain(self):
        queue = AdmissionQueue(8)
        for i in range(6):
            queue.put(i)
        queue.close()
        drained = []
        while True:
            batch = queue.take_batch(4, 0.0)
            if not batch:
                break
            drained.extend(batch)
        assert drained == list(range(6))

    def test_take_batch_returns_empty_after_close(self):
        queue = AdmissionQueue(4)
        queue.close()
        assert queue.take_batch(4, 0.0) == []

    def test_close_wakes_blocked_consumer(self):
        queue = AdmissionQueue(4)
        done = threading.Event()
        batches: list = []

        def consumer():
            batches.append(queue.take_batch(4, 1.0))
            done.set()

        thread = threading.Thread(target=consumer, daemon=True)
        thread.start()
        time.sleep(0.05)
        queue.close()
        assert done.wait(2.0)
        thread.join(2.0)
        assert batches == [[]]
