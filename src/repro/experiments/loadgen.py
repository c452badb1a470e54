"""Closed- and open-loop load generation against the serving tier.

Two canonical driver shapes from the serving literature (and Odyssey's
evaluation methodology):

* **Closed loop** — ``concurrency`` workers, each submitting its next
  query the moment the previous answer returns.  Measures capacity:
  offered load adapts to the system, so nothing sheds and throughput is
  the headline number.
* **Open loop** — arrivals on an exponential (Poisson) clock at a fixed
  ``rate_qps`` regardless of completions.  Measures behaviour *under* a
  given offered load: queue growth, shed rate, and tail latency.

Both drivers work against anything exposing ``submit(request) ->
Future`` — normally a :class:`repro.serving.service.QueryService` — and
return a :class:`LoadReport` of client-observed latencies, which include
queueing delay and therefore differ from (are a superset of) the
service's own SLO view.

Arrival randomness and query choice are seeded; wall-clock pacing means
reports are only *statistically* reproducible, which is all a load test
can promise.

The same drivers reach a *remote* server through
:class:`RemoteSubmitter`, which adapts the JSON-lines wire client to the
``submit() -> Future`` shape, and the module doubles as a CLI
(``python -m repro.experiments.loadgen --host ... --port ...``) — the
traffic source for the CI observability job and ad-hoc load tests.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..serving.admission import DeadlineExceededError, OverloadedError
from ..serving.requests import QueryRequest, WriteRequest
from ..serving.slo import nearest_rank

__all__ = ["LoadReport", "RemoteSubmitter", "closed_loop", "open_loop"]


@dataclass
class LoadReport:
    """Client-side outcome of one load-generation run."""

    mode: str
    sent: int = 0
    completed: int = 0
    shed: int = 0
    deadline_shed: int = 0
    errors: int = 0
    #: Completed answers flagged degraded (sharded serving: partitions
    #: unavailable after replica failover; still counted as completed).
    degraded: int = 0
    duration_s: float = 0.0
    offered_qps: float = 0.0
    #: Read latencies only — ``write_latencies_s`` is kept apart so
    #: "p99 read latency at X% write mix" is directly comparable to a
    #: read-only run.
    latencies_s: list[float] = field(default_factory=list)
    writes_sent: int = 0
    writes_completed: int = 0
    write_errors: int = 0
    write_records: int = 0
    write_latencies_s: list[float] = field(default_factory=list)

    @property
    def achieved_qps(self) -> float:
        return self.completed / self.duration_s if self.duration_s else 0.0

    def percentiles(self) -> dict:
        ordered = sorted(self.latencies_s)
        return {
            "p50_s": nearest_rank(ordered, 0.50),
            "p95_s": nearest_rank(ordered, 0.95),
            "p99_s": nearest_rank(ordered, 0.99),
        }

    def to_dict(self) -> dict:
        doc = {
            "mode": self.mode,
            "sent": self.sent,
            "completed": self.completed,
            "shed": self.shed,
            "deadline_shed": self.deadline_shed,
            "errors": self.errors,
            "degraded": self.degraded,
            "duration_s": self.duration_s,
            "offered_qps": self.offered_qps,
            "achieved_qps": self.achieved_qps,
            "latency": {**self.percentiles(), "samples": len(self.latencies_s)},
        }
        if self.writes_sent:
            ordered = sorted(self.write_latencies_s)
            doc["writes"] = {
                "sent": self.writes_sent,
                "completed": self.writes_completed,
                "errors": self.write_errors,
                "records": self.write_records,
                "records_per_s": (
                    self.write_records / self.duration_s
                    if self.duration_s else 0.0
                ),
                "p50_s": nearest_rank(ordered, 0.50),
                "p99_s": nearest_rank(ordered, 0.99),
            }
        return doc


def _make_requests(queries: np.ndarray, **request_kwargs) -> list[QueryRequest]:
    return [QueryRequest(q, **request_kwargs) for q in np.asarray(queries)]


def _is_degraded(result) -> bool:
    """True for a degraded answer, wire dict or result object alike."""
    if isinstance(result, dict):
        return bool(result.get("degraded"))
    return bool(getattr(result, "degraded", False))


def _draw_write(
    pool: np.ndarray, rng, batch_size: int, deadline_ms
) -> WriteRequest:
    picks = rng.integers(len(pool), size=max(1, batch_size))
    return WriteRequest(pool[picks], deadline_ms=deadline_ms)


def closed_loop(
    service,
    queries: np.ndarray,
    total: int,
    concurrency: int,
    seed: int = 0,
    write_mix: float = 0.0,
    writes: np.ndarray | None = None,
    write_batch: int = 1,
    **request_kwargs,
) -> LoadReport:
    """``concurrency`` workers issue ``total`` requests back-to-back.

    Each worker draws its next query from ``queries`` with a seeded RNG,
    so partition reuse within a batching window mirrors skewed
    production traffic rather than a fixed round-robin.

    With ``write_mix`` > 0 each iteration becomes a write with that
    probability, drawing ``write_batch`` rows from ``writes`` (default:
    the query pool) and going through ``service.submit_write``.  Read
    latencies stay segregated in ``latencies_s`` so "p99 read at X%
    write mix" compares directly against a read-only run.
    """
    if concurrency <= 0 or total <= 0:
        raise ValueError("concurrency and total must be positive")
    if not 0.0 <= write_mix <= 1.0:
        raise ValueError("write_mix must be in [0, 1]")
    requests = _make_requests(queries, **request_kwargs)
    write_pool = np.asarray(queries if writes is None else writes)
    write_deadline = request_kwargs.get("deadline_ms")
    report = LoadReport(mode="closed-loop")
    lock = threading.Lock()
    counter = iter(range(total))

    def worker(rank: int) -> None:
        rng = np.random.default_rng(seed + rank)
        while True:
            with lock:
                try:
                    next(counter)
                except StopIteration:
                    return
            if write_mix > 0.0 and rng.random() < write_mix:
                request = _draw_write(
                    write_pool, rng, write_batch, write_deadline
                )
                with lock:
                    report.writes_sent += 1
                started = time.monotonic()
                try:
                    service.submit_write(request).result()
                except OverloadedError:
                    with lock:
                        report.shed += 1
                    continue
                except DeadlineExceededError:
                    with lock:
                        report.deadline_shed += 1
                    continue
                except Exception:
                    with lock:
                        report.write_errors += 1
                    continue
                elapsed = time.monotonic() - started
                with lock:
                    report.writes_completed += 1
                    report.write_records += len(request.batch)
                    report.write_latencies_s.append(elapsed)
                continue
            with lock:
                report.sent += 1
            request = requests[int(rng.integers(len(requests)))]
            started = time.monotonic()
            try:
                result = service.submit(request).result()
            except OverloadedError:
                with lock:
                    report.shed += 1
                continue
            except DeadlineExceededError:
                with lock:
                    report.deadline_shed += 1
                continue
            except Exception:
                with lock:
                    report.errors += 1
                continue
            elapsed = time.monotonic() - started
            with lock:
                report.completed += 1
                if _is_degraded(result):
                    report.degraded += 1
                report.latencies_s.append(elapsed)

    threads = [
        threading.Thread(target=worker, args=(rank,), daemon=True)
        for rank in range(concurrency)
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.duration_s = time.monotonic() - started
    report.offered_qps = report.achieved_qps  # closed loop: self-paced
    return report


def open_loop(
    service,
    queries: np.ndarray,
    rate_qps: float,
    duration_s: float,
    seed: int = 0,
    write_mix: float = 0.0,
    writes: np.ndarray | None = None,
    write_batch: int = 1,
    **request_kwargs,
) -> LoadReport:
    """Poisson arrivals at ``rate_qps`` for ``duration_s`` seconds.

    The arrival thread never waits for answers (that's the point of an
    open loop); completions are harvested from futures afterwards.  With
    a ``shed`` service policy, overload shows up in ``report.shed``
    instead of unbounded queueing.

    ``write_mix`` turns each arrival into a write with that probability
    (``write_batch`` rows from ``writes``, default the query pool);
    write latencies land in ``write_latencies_s``, keeping the read
    tail unpolluted.
    """
    if rate_qps <= 0 or duration_s <= 0:
        raise ValueError("rate_qps and duration_s must be positive")
    if not 0.0 <= write_mix <= 1.0:
        raise ValueError("write_mix must be in [0, 1]")
    requests = _make_requests(queries, **request_kwargs)
    write_pool = np.asarray(queries if writes is None else writes)
    write_deadline = request_kwargs.get("deadline_ms")
    rng = np.random.default_rng(seed)
    report = LoadReport(mode="open-loop", offered_qps=rate_qps)
    in_flight: list = []
    lock = threading.Lock()

    def track(submitted_at: float, is_write: bool = False, n_records: int = 0):
        # Completion time is stamped by the done-callback (batcher
        # thread), not at harvest — latencies stay honest even though
        # the arrival loop never blocks on answers.
        def done(future) -> None:
            finished_at = time.monotonic()
            exc = future.exception()
            with lock:
                if isinstance(exc, OverloadedError):
                    # Remote submitters surface shedding through the
                    # future (the socket round-trip already happened);
                    # classify it as shed, not an error, to match the
                    # synchronous-raise path above.
                    report.shed += 1
                elif isinstance(exc, DeadlineExceededError):
                    report.deadline_shed += 1
                elif exc is not None:
                    if is_write:
                        report.write_errors += 1
                    else:
                        report.errors += 1
                elif is_write:
                    report.writes_completed += 1
                    report.write_records += n_records
                    report.write_latencies_s.append(
                        finished_at - submitted_at
                    )
                else:
                    report.completed += 1
                    if _is_degraded(future.result()):
                        report.degraded += 1
                    report.latencies_s.append(finished_at - submitted_at)

        return done

    start = time.monotonic()
    next_arrival = start
    deadline = start + duration_s
    while True:
        now = time.monotonic()
        if now >= deadline:
            break
        if now < next_arrival:
            time.sleep(min(next_arrival - now, deadline - now))
            continue
        is_write = write_mix > 0.0 and rng.random() < write_mix
        submitted_at = time.monotonic()
        try:
            if is_write:
                request = _draw_write(
                    write_pool, rng, write_batch, write_deadline
                )
                report.writes_sent += 1
                future = service.submit_write(request)
            else:
                request = requests[int(rng.integers(len(requests)))]
                report.sent += 1
                future = service.submit(request)
        except OverloadedError:
            report.shed += 1
        else:
            future.add_done_callback(
                track(
                    submitted_at, is_write=is_write,
                    n_records=len(request.batch) if is_write else 0,
                )
            )
            in_flight.append(future)
        next_arrival += float(rng.exponential(1.0 / rate_qps))
    for future in in_flight:
        try:
            future.exception(timeout=30.0)
        except Exception:
            pass
    report.duration_s = time.monotonic() - start
    return report


class RemoteSubmitter:
    """Adapts a remote JSON-lines server to ``submit(request) -> Future``.

    Each pool worker keeps one persistent socket (thread-local
    :class:`~repro.serving.server.ServingClient`), so a closed-loop run
    with ``concurrency`` workers holds ``concurrency`` connections — the
    same shape a fleet of real clients presents.  Server-side shedding
    comes back as :class:`OverloadedError`, raised out of the future.
    """

    def __init__(self, host: str, port: int, concurrency: int = 8):
        self._host = host
        self._port = port
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, concurrency),
            thread_name_prefix="repro-loadgen",
        )
        self._local = threading.local()
        self._clients: list = []
        self._clients_lock = threading.Lock()

    def _client(self):
        from ..serving.server import ServingClient

        client = getattr(self._local, "client", None)
        if client is None:
            client = self._local.client = ServingClient(
                self._host, self._port
            )
            with self._clients_lock:
                self._clients.append(client)
        return client

    def _call(self, request: QueryRequest):
        client = self._client()
        if request.op == "exact-match":
            return client.exact_match(
                request.series, request.use_bloom,
                deadline_ms=request.deadline_ms,
            )
        return client.knn(
            request.series, k=request.k,
            strategy=request.strategy, pth=request.pth,
            deadline_ms=request.deadline_ms,
        )

    def _call_write(self, request: WriteRequest):
        client = self._client()
        return client.write_batch(
            request.batch,
            record_ids=request.record_ids,
            deadline_ms=request.deadline_ms,
        )

    def submit(self, request: QueryRequest) -> Future:
        return self._pool.submit(self._call, request)

    def submit_write(self, request: WriteRequest) -> Future:
        return self._pool.submit(self._call_write, request)

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        with self._clients_lock:
            for client in self._clients:
                try:
                    client.close()
                except OSError:
                    pass
            self._clients.clear()

    def __enter__(self) -> "RemoteSubmitter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main(argv: list[str] | None = None) -> int:
    """Drive a running server and print the LoadReport as JSON."""
    import argparse
    import json

    from ..tsdb.io import read_npz_dataset

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.loadgen",
        description="generate closed- or open-loop load against a "
                    "running repro serve instance",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--data", required=True,
                        help="dataset .npz whose rows become queries")
    parser.add_argument("--queries", type=int, default=64,
                        help="distinct query series drawn from the dataset")
    parser.add_argument("--mode", choices=("closed", "open"), default="closed")
    parser.add_argument("--total", type=int, default=100,
                        help="closed loop: total requests")
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--rate", type=float, default=50.0,
                        help="open loop: offered arrival rate (qps)")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="open loop: run length in seconds")
    parser.add_argument("--op", choices=("knn", "exact-match"), default="knn")
    parser.add_argument("--strategy", default="target-node")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--pth", type=int, default=None,
                        help="multi-partitions fan-out cap")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="per-request latency budget forwarded to the "
                             "server (expired requests count as "
                             "deadline_shed)")
    parser.add_argument("--write-mix", type=float, default=0.0,
                        help="probability each request is a write batch "
                             "instead of a query (0 = read-only)")
    parser.add_argument("--write-data", default=None,
                        help="dataset .npz whose rows become appended "
                             "records (default: --data)")
    parser.add_argument("--write-batch", type=int, default=1,
                        help="records per write request")
    args = parser.parse_args(argv)

    values = read_npz_dataset(args.data).values
    rng = np.random.default_rng(args.seed)
    picks = rng.integers(len(values), size=max(1, args.queries))
    queries = values[picks]
    write_pool = None
    if args.write_mix > 0.0 and args.write_data:
        write_pool = read_npz_dataset(args.write_data).values
    request_kwargs: dict = {"op": args.op}
    if args.op == "knn":
        request_kwargs.update(strategy=args.strategy, k=args.k)
        if args.pth is not None:
            request_kwargs["pth"] = args.pth
    if args.deadline_ms is not None:
        request_kwargs["deadline_ms"] = args.deadline_ms
    mix_kwargs = {}
    if args.write_mix > 0.0:
        mix_kwargs = dict(
            write_mix=args.write_mix,
            writes=values if write_pool is None else write_pool,
            write_batch=args.write_batch,
        )

    with RemoteSubmitter(args.host, args.port, args.concurrency) as remote:
        if args.mode == "closed":
            report = closed_loop(
                remote, queries, total=args.total,
                concurrency=args.concurrency, seed=args.seed,
                **mix_kwargs, **request_kwargs,
            )
        else:
            report = open_loop(
                remote, queries, rate_qps=args.rate,
                duration_s=args.duration, seed=args.seed,
                **mix_kwargs, **request_kwargs,
            )
    print(json.dumps(report.to_dict(), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
