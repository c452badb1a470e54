"""Bounded admission queue with configurable backpressure.

Odyssey-style serving starts at the front door: an unbounded queue turns
overload into unbounded latency, so admission is a fixed-capacity queue
with one of two policies when full:

* ``block`` — the submitting caller waits for space (closed-loop
  clients; backpressure propagates to the producer).
* ``shed`` — the request is rejected immediately with a structured
  :class:`OverloadedError` (open-loop traffic; the server maps it to an
  ``overloaded`` wire error so clients can back off).

The consumer side is batch-oriented: :meth:`AdmissionQueue.take_batch`
blocks for the first ticket and returns it with whatever else has queued
up, at most ``max_batch`` — batches form from backlog, exactly when the
consumer is the bottleneck, and a request that finds the consumer idle
goes at once.  A positive ``max_delay_s`` is an opt-in linger: the
window then stays open until ``max_delay_s`` after its first ticket
*arrived* (:meth:`put` stamps every arrival), so time a ticket already
spent queued behind a busy consumer counts against the linger and a lone
request is never held longer than the bound.  :meth:`close` stops
admissions while letting the consumer drain what was already accepted —
the graceful-shutdown half of the serving contract.
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = [
    "AdmissionQueue",
    "BACKPRESSURE_POLICIES",
    "DeadlineExceededError",
    "OverloadedError",
]

#: Recognized values of the ``policy=`` knob.
BACKPRESSURE_POLICIES = ("block", "shed")


class OverloadedError(RuntimeError):
    """The admission queue was full under the ``shed`` policy.

    Carries enough structure for the wire protocol to report a machine-
    readable ``overloaded`` error (queue depth and capacity at rejection
    time) rather than a bare string.
    """

    def __init__(self, depth: int, capacity: int):
        super().__init__(
            f"admission queue full ({depth}/{capacity}); request shed"
        )
        self.depth = depth
        self.capacity = capacity


class DeadlineExceededError(RuntimeError):
    """A request's deadline budget expired before execution began.

    Queue wait counts against the budget: the batcher checks each
    ticket's deadline at dequeue and sheds expired ones *without
    executing them* — doomed work is cancelled, not completed late.
    The wire protocol maps this to a ``deadline`` error, distinct from
    the capacity-driven ``overloaded`` shed.
    """

    def __init__(self, waited_s: float, deadline_s: float):
        super().__init__(
            f"deadline of {deadline_s * 1000.0:.1f}ms exceeded after "
            f"{waited_s * 1000.0:.1f}ms in queue"
        )
        self.waited_s = waited_s
        self.deadline_s = deadline_s


class AdmissionQueue:
    """Fixed-capacity FIFO between request producers and the batcher."""

    def __init__(self, capacity: int, policy: str = "block"):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if policy not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from "
                f"{BACKPRESSURE_POLICIES}"
            )
        self.capacity = capacity
        self.policy = policy
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False

    @property
    def depth(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, item, timeout: float | None = None) -> None:
        """Admit one item, honouring the backpressure policy.

        Raises :class:`OverloadedError` when shedding (or when a
        ``block`` wait exceeds ``timeout``) and :class:`RuntimeError`
        after :meth:`close`.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("admission queue is closed")
            if len(self._items) >= self.capacity:
                if self.policy == "shed":
                    raise OverloadedError(len(self._items), self.capacity)
                deadline = (
                    None if timeout is None else time.monotonic() + timeout
                )
                while len(self._items) >= self.capacity and not self._closed:
                    remaining = (
                        None if deadline is None
                        else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        raise OverloadedError(
                            len(self._items), self.capacity
                        )
                    self._not_full.wait(remaining)
                if self._closed:
                    raise RuntimeError("admission queue is closed")
            self._items.append((time.monotonic(), item))
            self._not_empty.notify()

    def take_batch(self, max_batch: int, max_delay_s: float) -> list:
        """Up to ``max_batch`` items; [] only when closed *and* drained.

        Blocks for the first item, then takes what is already queued.
        Only a positive ``max_delay_s`` waits for more: until the batch
        is full or ``max_delay_s`` has elapsed since the first item
        *arrived* — queue wait it already served is not charged again.
        """
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        batch: list = []
        with self._lock:
            while not self._items and not self._closed:
                self._not_empty.wait()
            if not self._items:
                return batch  # closed and drained
            arrived_at, item = self._items.popleft()
            batch.append(item)
            deadline = arrived_at + max_delay_s
            while len(batch) < max_batch:
                if not self._items:
                    if self._closed:
                        break
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._not_empty.wait(remaining)
                    continue
                batch.append(self._items.popleft()[1])
            self._not_full.notify(len(batch))
        return batch

    def close(self) -> None:
        """Refuse new admissions; wake every waiter so drain can finish."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()
