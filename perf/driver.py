"""The benchmark's own load drivers, percentiles and span recorder.

Deliberately not ``repro.experiments.loadgen``: that one lives in ``src/``
(so a later change could move the yardstick) and its open loop stamps a
request when it is actually sent, which hides every stall.  Here

* the **closed loop** runs ``C`` client threads that each send their next
  request only after the previous reply — callers that wait for an answer;
* the **open loop** sends on a seeded Poisson schedule regardless of
  replies — independent users — and times each request **from the moment
  it was due**, so a stall is charged to every request it delayed.  How
  late the generator itself ran is reported beside the latencies.

Both count a raised exception as a failed operation and keep going.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable

import numpy as np

clock = time.perf_counter


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile ``p`` in (0, 100] of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------


@dataclass
class Window:
    """One timed window of a closed-loop run."""

    seconds: float
    #: Correct operations that finished before the window closed.
    ok_in_time: int
    #: Every operation of the window, those in flight when it closed too.
    attempted: int
    failed: int
    #: Raw latency (s) of each of them.
    latencies: list
    #: CPU seconds of the system under test, up to the last reply.
    cpu_s: float
    #: Host slow-down while the window ran (``reference.py``); 1.0 = nominal.
    host: float


@dataclass
class ClosedResult:
    """What one closed-loop run measured (warm-up already discarded).

    The sandbox changes speed under the benchmark by up to 2x, for seconds
    or for minutes at a time (perf/README.md, "Noise"), so every time is
    divided by the host slow-down its own window saw.  The plain readings
    are kept beside them (``raw_*``) and printed on stderr.
    """

    windows: list
    #: ``repr`` of the first few exceptions, for the report.
    errors: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(w.attempted for w in self.windows)

    @property
    def failed(self) -> int:
        return sum(w.failed for w in self.windows)

    def throughput(self, raw: bool = False) -> float:
        """Correct operations per second: the median window's rate."""
        return median(
            w.ok_in_time / w.seconds * (1.0 if raw else w.host) for w in self.windows
        )

    def latencies(self, raw: bool = False) -> list:
        """Latency (s) of every operation of every window, pooled."""
        return [
            latency / (1.0 if raw else w.host)
            for w in self.windows for latency in w.latencies
        ]

    def cpu_s_per_op(self, raw: bool = False) -> float:
        """System CPU seconds per correct operation over the whole run."""
        cpu = sum(w.cpu_s / (1.0 if raw else w.host) for w in self.windows)
        return cpu / max(1, sum(w.attempted - w.failed for w in self.windows))

    @property
    def host(self) -> float:
        """The run's median host slow-down."""
        return median(w.host for w in self.windows)


class _Gate:
    """Lets the clients run, or parks them all between two operations."""

    def __init__(self, n_clients: int):
        self._changed = threading.Condition()
        self._open = False
        self._parked = 0
        self._n = n_clients
        self.closing = False

    def pass_through(self) -> None:
        """Called by a client before each operation; blocks while shut."""
        with self._changed:
            if not self._open:
                self._parked += 1
                self._changed.notify_all()
                while not self._open:
                    self._changed.wait()
                self._parked -= 1

    def open(self) -> None:
        with self._changed:
            self._open = True
            self._changed.notify_all()

    def shut(self) -> None:
        """Returns once every client has finished its operation and parked."""
        with self._changed:
            self._open = False
            while self._parked < self._n:
                self._changed.wait()


def run_closed(
    clients: list,
    *,
    warmup_ops: int,
    window_s: float,
    n_windows: int,
    cpu_clock: Callable[[], float],
    host_factor: Callable[[], float] | None = None,
    on_warm: Callable[[], None] | None = None,
) -> ClosedResult:
    """Drive ``len(clients)`` closed-loop clients through timed windows.

    Client ``j`` is a pair ``(fetch, call)``: ``fetch()`` takes the next
    input off its stream — the client's think time, outside the latency —
    and ``call(item)`` performs the operation and returns whether the
    reply was correct.  Every client first does ``warmup_ops`` untimed
    operations (a count, not a duration, so that what ``on_warm()`` then
    reads — memory — does not depend on the host's speed).  Then come
    ``n_windows`` windows of ``window_s`` seconds.  Between windows the
    clients are parked — the system under test is idle — and
    ``host_factor()`` measures how slow the host is running just then; a
    window's factor is the mean of the readings either side of it.
    """
    gate = _Gate(len(clients))
    logs = [[] for _ in clients]  # (started, ended, ok)
    errors: list = []

    def client(fetch, call, log) -> None:
        while True:
            gate.pass_through()
            if gate.closing:
                return
            item = fetch()
            started = clock()
            try:
                ok = bool(call(item))
            except Exception as exc:  # a failed op must not end the run
                ok = False
                if len(errors) < 5:
                    errors.append(repr(exc))
            log.append((started, clock(), ok))

    threads = [
        threading.Thread(target=client, args=(fetch, call, log), daemon=True)
        for (fetch, call), log in zip(clients, logs)
    ]
    for thread in threads:
        thread.start()
    gate.open()
    while min(len(log) for log in logs) < warmup_ops:
        time.sleep(0.005)
    gate.shut()
    if on_warm is not None:
        on_warm()

    read_host = host_factor or (lambda: 1.0)
    marks = []  # (opened, shut, cpu)
    factors = [read_host()]
    for _ in range(n_windows):
        cpu0 = cpu_clock()
        opened = clock()
        gate.open()
        time.sleep(window_s)
        shut = clock()
        gate.shut()
        marks.append((opened, shut, cpu_clock() - cpu0))
        factors.append(read_host())
    gate.closing = True
    gate.open()
    for thread in threads:
        thread.join()

    windows = []
    for k, (opened, shut, cpu_s) in enumerate(marks):
        # Clients are parked either side of ``opened``, so an operation
        # that started after it belongs to this window and to no other.
        mine = [
            (started, ended, ok)
            for log in logs for started, ended, ok in log
            if started >= opened and (k + 1 == len(marks) or started < marks[k + 1][0])
        ]
        windows.append(Window(
            seconds=shut - opened,
            ok_in_time=sum(ok and ended <= shut for _, ended, ok in mine),
            attempted=len(mine),
            failed=sum(not ok for _, _, ok in mine),
            latencies=[ended - started for started, ended, _ in mine],
            cpu_s=cpu_s,
            host=(factors[k] + factors[k + 1]) / 2.0,
        ))
    return ClosedResult(windows=windows, errors=errors)


# ---------------------------------------------------------------------------
# Open loop
# ---------------------------------------------------------------------------


@dataclass
class OpenResult:
    rate: float
    sent: int
    failed: int
    #: Seconds from each request's *due* time to its reply.
    latencies: list
    #: Seconds each request was sent after it was due.
    lateness: list


def run_open(steps: list, *, rate: float, duration_s: float, seed: int) -> OpenResult:
    """Send requests on a Poisson schedule of ``rate`` per second.

    ``steps`` holds one ``step(i) -> ok`` per worker thread (each with its
    own connection, opened by the caller before the clock starts).  A free
    worker takes the next request, waits until it is due, sends it, and
    records ``reply time - due time``.  With every worker busy the next
    request goes out late, and that lateness is part of its latency.
    """
    rng = np.random.default_rng([seed, int(rate)])
    n = max(1, int(rate * duration_s))
    due = np.cumsum(rng.exponential(1.0 / rate, size=n)).tolist()
    latencies = [0.0] * n
    lateness = [0.0] * n
    failures = [False] * n
    lock = threading.Lock()
    cursor = [0]
    begin = clock() + 0.05

    def worker(step) -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= n:
                return
            due_at = begin + due[i]
            time.sleep(max(0.0, due_at - clock()))
            sent = clock()
            try:
                ok = bool(step(i))
            except Exception:  # counted, and the schedule goes on
                ok = False
            latencies[i] = clock() - due_at
            lateness[i] = sent - due_at
            failures[i] = not ok

    threads = [
        threading.Thread(target=worker, args=(step,), daemon=True) for step in steps
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return OpenResult(
        rate=rate, sent=n, failed=sum(failures),
        latencies=latencies, lateness=lateness,
    )


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class SpanRecorder:
    """In-memory spans recorded by the benchmark around calls into a layer.

    One span is ``(id, name, request, parent, start, end)``; the spans of
    one request share its ``request`` id and point at the span that caused
    them.  Nothing is written until :meth:`to_document` at exit.
    """

    def __init__(self) -> None:
        self.spans: list = []

    def start(self, name: str, request: int, parent: int | None = None) -> int:
        self.spans.append([name, request, parent, clock(), None])
        return len(self.spans) - 1

    def end(self, span_id: int) -> float:
        span = self.spans[span_id]
        span[4] = clock()
        return span[4] - span[3]

    def add(self, name: str, request: int, parent: int | None,
            start: float, end: float) -> None:
        """Record a span from clock readings the caller already took."""
        self.spans.append([name, request, parent, start, end])

    def timed(self, name: str, request: int, parent: int | None, fn, *args):
        """Run ``fn(*args)`` inside a span; returns ``(result, seconds)``."""
        span_id = self.start(name, request, parent)
        result = fn(*args)
        return result, self.end(span_id)

    def to_document(self, origin: float) -> dict:
        return {
            "schema": "perf.trace/v1",
            "clock": "seconds since the run's first span",
            "spans": [
                {
                    "id": i, "name": name, "request": request,
                    "parent": parent, "start": start - origin,
                    "end": (end if end is not None else start) - origin,
                }
                for i, (name, request, parent, start, end) in enumerate(self.spans)
            ],
        }
