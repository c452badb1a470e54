"""Pluggable task-execution backends for the cluster engine.

The paper's stages run concurrently across Spark workers; the seed engine
executed every stage sequentially on the driver thread, *simulating*
parallel cost without using the hardware.  This module supplies the real
execution layer behind :class:`~repro.cluster.engine.SimCluster`,
:mod:`repro.core.batch`, and the experiment harness:

* ``serial`` — the seed behaviour: one task after another on the driver.
* ``threads`` — a shared :class:`~concurrent.futures.ThreadPoolExecutor`.
  numpy-heavy tasks (conversion, distance ranking) release the GIL and
  may overlap across cores; pure-Python tasks at least overlap with I/O.

Both backends keep the engine's contract:

* **Result order** — ``map_tasks`` returns results indexed like its
  inputs, so downstream merges (shuffle bucket concatenation, partition
  dict construction) are byte-identical to serial execution.
* **Deterministic errors** — when several tasks fail, the failure of the
  lowest task index is raised.
* **Telemetry** — tasks mutate the shared (thread-safe) tracer, metrics
  registry and kernel counters directly.
* **Trace context** — ``map_tasks`` captures the driver thread's current
  span and attaches it inside every pool task (:func:`_propagating`), so
  spans opened by tasks stitch into the dispatching trace instead of
  fragmenting into orphan roots (see docs/OBSERVABILITY.md).

The process-wide default backend is ``threads`` and can be changed with
:func:`set_default_executor`, the CLI's ``--executor``/``--jobs`` flags,
or the ``REPRO_EXECUTOR`` / ``REPRO_JOBS`` environment variables.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ..telemetry.perf import KERNELS as _KERNELS

__all__ = [
    "EXECUTOR_KINDS",
    "SerialExecutor",
    "ThreadExecutor",
    "default_jobs",
    "make_executor",
    "resolve_executor",
    "get_default_executor",
    "set_default_executor",
]

logger = logging.getLogger(__name__)

#: Recognized values of the ``executor=`` knob, in cost order.
EXECUTOR_KINDS = ("serial", "threads")

_DEFAULT_KIND = "threads"


def _timed_task(fn, task_walls: list):
    """Wrap ``fn`` so each task's wall time lands on ``exec_compute``.

    ``task_walls`` collects the per-task durations (list.append is
    atomic under the GIL, so thread pools share one list safely); the
    dispatching ``map_tasks`` subtracts their sum from its own wall to
    charge the residual — submission, scheduling, result collection —
    to ``exec_dispatch``.  Only installed when the kernel counters are
    enabled, so the disabled path keeps its zero-wrapper fast path.
    """

    def run(index, item):
        t0 = time.perf_counter()
        try:
            return fn(index, item)
        finally:
            elapsed = time.perf_counter() - t0
            task_walls.append(elapsed)
            _KERNELS.record("exec_compute", seconds=elapsed)

    return run


def _record_dispatch(started_s: float, task_walls: list, n_tasks: int) -> None:
    """Charge the non-compute residual of one ``map_tasks`` call."""
    residual = time.perf_counter() - started_s - sum(task_walls)
    _KERNELS.record(
        "exec_dispatch", elements=n_tasks, seconds=max(0.0, residual)
    )


def default_jobs() -> int:
    """Degree of real parallelism to use when none is requested."""
    return max(1, os.cpu_count() or 1)


class SerialExecutor:
    """Seed behaviour: run every task inline on the calling thread.

    ``task_clock`` is ``perf_counter`` — with a single runner, wall time
    *is* CPU time, and this keeps serial ledger charges byte-compatible
    with the pre-executor engine.
    """

    kind = "serial"
    task_clock = staticmethod(time.perf_counter)

    def __init__(self, jobs: int | None = None):
        self.jobs = 1

    def map_tasks(self, fn, items) -> list:
        """``[fn(0, items[0]), fn(1, items[1]), ...]``, stopping on error."""
        if not _KERNELS.enabled:
            return [fn(i, item) for i, item in enumerate(items)]
        walls: list[float] = []
        timed = _timed_task(fn, walls)
        t0 = time.perf_counter()
        results = [timed(i, item) for i, item in enumerate(items)]
        _record_dispatch(t0, walls, len(results))
        return results


class ThreadExecutor:
    """One shared thread pool; tasks run concurrently under the GIL.

    ``task_clock`` is ``thread_time`` so a task is charged its own CPU
    seconds, not the wall time it spent waiting for the GIL while sibling
    tasks ran — per-worker cost attribution stays analytic under
    concurrency.
    """

    kind = "threads"
    task_clock = staticmethod(time.thread_time)

    def __init__(self, jobs: int | None = None):
        self.jobs = jobs or default_jobs()
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _get_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.jobs, thread_name_prefix="repro-exec"
                )
            return self._pool

    def map_tasks(self, fn, items) -> list:
        items = list(items)
        counters = _KERNELS.enabled
        walls: list[float] = []
        t_start = time.perf_counter() if counters else 0.0
        if counters:
            fn = _timed_task(fn, walls)
        if len(items) <= 1 or self.jobs == 1:
            results = [fn(i, item) for i, item in enumerate(items)]
            if counters:
                _record_dispatch(t_start, walls, len(items))
            return results
        fn = _propagating(fn)
        # NOTE: tasks must not submit to the same executor (the pool is
        # bounded, so nested submission can deadlock).  Engine stages and
        # batch passes only ever dispatch from the driver thread.
        futures = [
            self._get_pool().submit(fn, i, item)
            for i, item in enumerate(items)
        ]
        results, first_error = [], None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # re-raised below, lowest index
                if first_error is None:
                    first_error = exc
                results.append(None)
        if first_error is not None:
            raise first_error
        if counters:
            _record_dispatch(t_start, walls, len(items))
        return results


def _propagating(fn):
    """Wrap ``fn`` so pool tasks run under the dispatching thread's span.

    Span stacks are thread-local, so without the handoff a span opened
    inside a worker task would register as its own root — fragmenting the
    request trace at the executor boundary.  Capturing the driver's
    current span once at dispatch and attaching it around each task keeps
    the whole fan-out inside one trace.  Free when tracing is disabled.
    """
    from ..telemetry.spans import Span, get_tracer

    tracer = get_tracer()
    if not tracer.enabled:
        return fn
    parent = tracer.current()
    if not isinstance(parent, Span):
        return fn

    def run(index, item):
        token = tracer.attach(parent)
        try:
            return fn(index, item)
        finally:
            tracer.detach(token)

    return run


# ---------------------------------------------------------------------------
# Registry of shared executor instances + the process-wide default
# ---------------------------------------------------------------------------

_EXECUTOR_CLASSES = {
    "serial": SerialExecutor,
    "threads": ThreadExecutor,
}

_instances: dict = {}
_instances_lock = threading.Lock()
_default: object | None = None


def make_executor(kind: str, jobs: int | None = None):
    """A (shared) executor instance of ``kind`` with ``jobs`` workers.

    Instances are cached per ``(kind, jobs)`` so thread pools are reused
    instead of re-spawned by every :class:`SimCluster`.
    """
    if kind not in _EXECUTOR_CLASSES:
        raise ValueError(
            f"unknown executor {kind!r}; choose from {EXECUTOR_KINDS}"
        )
    if jobs is not None and jobs < 1:
        raise ValueError("jobs must be a positive worker count")
    resolved_jobs = 1 if kind == "serial" else (jobs or default_jobs())
    key = (kind, resolved_jobs)
    with _instances_lock:
        if key not in _instances:
            _instances[key] = _EXECUTOR_CLASSES[kind](resolved_jobs)
        return _instances[key]


def get_default_executor():
    """The process-wide default backend (``threads`` unless overridden by
    :func:`set_default_executor` or ``REPRO_EXECUTOR``/``REPRO_JOBS``).

    A bad environment value raises ``ValueError`` naming the variable,
    the value and what it accepts.
    """
    global _default
    if _default is None:
        kind = os.environ.get("REPRO_EXECUTOR", _DEFAULT_KIND)
        if kind not in EXECUTOR_KINDS:
            raise ValueError(
                f"REPRO_EXECUTOR={kind!r} is not an executor; "
                f"choose from {EXECUTOR_KINDS}"
            )
        jobs_env = os.environ.get("REPRO_JOBS")
        try:
            jobs = int(jobs_env) if jobs_env else None
        except ValueError:
            jobs = 0
        if jobs is not None and jobs < 1:
            raise ValueError(
                f"REPRO_JOBS={jobs_env!r} is not a positive worker count"
            )
        _default = make_executor(kind, jobs)
        logger.debug(
            "default executor: %s (jobs=%d)", _default.kind, _default.jobs
        )
    return _default


def set_default_executor(kind: str | None = None, jobs: int | None = None):
    """Change the process-wide default; returns the new executor.

    ``kind=None`` keeps the current kind and only changes ``jobs``.
    """
    global _default
    if kind is None:
        kind = get_default_executor().kind
    _default = make_executor(kind, jobs)
    logger.info("executor set to %s (jobs=%d)", _default.kind, _default.jobs)
    return _default


def resolve_executor(executor=None, jobs: int | None = None):
    """Normalize an ``executor=`` argument: None → the process default,
    a kind string → a shared instance, an instance → itself."""
    if executor is None:
        if jobs is None:
            return get_default_executor()
        return make_executor(get_default_executor().kind, jobs)
    if isinstance(executor, str):
        return make_executor(executor, jobs)
    return executor
