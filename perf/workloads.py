"""The four workloads and the run scaffolding they share.

Every workload deploys the same way — a fresh interpreter builds the index
and saves it, the system under test loads that directory — and then
differs in *what* is deployed and *which traffic* it gets:

``lib-mpa``       direct ``knn_multi_partitions_access``, one thread
``serve-point``   TCP → ``TardisServer(QueryService)``, exact-match / target-node
``shard-mpa``     TCP → router → 2 processes-mode shards, multi-partitions kNN
``ingest-mixed``  TCP → ``QueryService(wal=…, rebalance=True)``, write + read cycles

Each returns the end-to-end metrics of BENCHMARK.json; ``layers.py`` holds
the traced ledgers that explain them.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from driver import ClosedResult, SpanRecorder, clock, percentile, run_closed
from inputs import Inputs, make_inputs
from reference import Reference
from system import OUT, Child, cpu_seconds, peak_rss_mb, prepare_runtime
from verify import K, Tally, exact_ok, ground_truth, knn_answer, knn_ok, recall

#: Series per ``write_batch`` of ``ingest-mixed``.
WRITE_BATCH = 8


@dataclass(frozen=True)
class Scale:
    n_series: int
    #: Verification queries.  Target-node answers come from one small
    #: node, so their recall varies more from query to query and takes
    #: three times the queries to settle to the same spread across seeds.
    n_verify: int
    n_verify_point: int


FULL = Scale(n_series=50_000, n_verify=200, n_verify_point=600)
SMOKE = Scale(n_series=5_000, n_verify=60, n_verify_point=60)


class Cursor:
    """Client ``j``'s endless, never-repeating walk over a chunked stream."""

    def __init__(self, chunk_fn, client: int, n_clients: int):
        self._chunk_fn = chunk_fn
        self._chunk = client
        self._stride = n_clients
        self._rows: list = []
        self._at = 0

    def __call__(self):
        if self._at == len(self._rows):
            self._rows = self._chunk_fn(self._chunk)
            self._chunk += self._stride
            self._at = 0
        row = self._rows[self._at]
        self._at += 1
        return row


def ask_all(asks: list, queries) -> list:
    """kNN answers to ``queries``, the work shared by ``asks`` — one
    callable per connection."""
    with ThreadPoolExecutor(len(asks)) as pool:
        parts = pool.map(
            lambda j: [knn_answer(asks[j](q)) for q in queries[j::len(asks)]],
            range(len(asks)),
        )
        answers = [None] * len(queries)
        for j, part in enumerate(parts):
            answers[j::len(asks)] = part
    return answers


class Run:
    """One run of one workload: inputs, scratch space, children, tally."""

    def __init__(self, name: str, seed: int, seconds: float, scale: Scale,
                 trace: bool):
        self.name = name
        self.seconds = seconds
        self.scale = scale
        #: ``(label, clock)`` marks, printed on stderr: where a run's
        #: wall time went, which is what the driver's time cap is about.
        self.phases = [("start", clock())]
        self.cores = prepare_runtime()
        self.phase("compile")
        self.n_clients = min(2, len(self.cores))
        self.inputs: Inputs = make_inputs(seed, scale.n_series)
        self.dir = OUT / f"run-{name}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.index_dir = self.dir / "index"
        self.tally = Tally()
        self.spans = SpanRecorder() if trace else None
        self.children: list = []
        self.reference = Reference()
        #: The builder child's report, once :meth:`build_index` has run.
        self.built: dict = {}
        #: Set-up seconds so far: as read, and at nominal host speed.
        self.setup_raw_s = 0.0
        self.setup_s = 0.0
        self._setup_hosts: list = []
        self.phase("inputs")

    def phase(self, label: str) -> None:
        self.phases.append((label, clock()))

    # -- set-up -------------------------------------------------------------

    @property
    def system_core(self) -> int:
        return self.cores[-1]

    def set_up(self, cores: list, step):
        """One step of the set-up, between two readings of the host's speed
        on the ``cores`` it runs on.  ``step()`` returns ``(result,
        seconds)``, the seconds being what the program itself took."""
        before = self.reference.host_factor(cores)
        result, seconds = step()
        host = (before + self.reference.host_factor(cores)) / 2.0
        self.setup_raw_s += seconds
        self.setup_s += seconds / host
        self._setup_hosts.append(host)
        return result

    @property
    def setup_host(self) -> float:
        return sum(self._setup_hosts) / len(self._setup_hosts)

    def build_index(self) -> None:
        """Build + save the index in a fresh interpreter."""
        data_file = self.dir / "data.npy"
        np.save(data_file, self.inputs.data)

        def step():
            child = Child(
                ["build", "--data", str(data_file), "--out", str(self.index_dir)],
                core=self.system_core,
            )
            child.wait()
            self.built = {**child.ready, "maxrss_mb": child.maxrss_mb}
            return None, self.built["build_s"] + self.built["save_s"]

        self.set_up([self.system_core], step)
        data_file.unlink()
        self.phase("build+save")

    def stored_ratio(self) -> float:
        stored = sum(f.stat().st_size for f in self.index_dir.rglob("*") if f.is_file())
        return stored / self.inputs.data.nbytes

    def oracle_index(self):
        """The saved index, loaded into the driver for the oracle's direct
        calls (no part of the set-up)."""
        from repro.core import load_index

        return load_index(self.index_dir)

    def load_library_index(self):
        """``load_index`` into the driver, as a step of the set-up."""
        from repro.core import load_index

        def step():
            started = clock()
            index = load_index(self.index_dir)
            return index, clock() - started

        return self.set_up(self.cores[:1], step)

    def start(self, *argv: str, cores: list | None = None) -> Child:
        """Start a server child on the system core and wait until it is up,
        as a step of the set-up; ``cores`` are the ones it loads on, if not
        just that one."""
        def step():
            child = Child(list(argv), core=self.system_core)
            self.children.append(child)
            ready = child.ready
            return child, (
                ready["load_s"] + ready["start_s"] + ready.get("cluster_start_s", 0.0))

        return self.set_up(cores or [self.system_core], step)

    def connect(self, child: Child, n: int | None = None) -> list:
        from repro.serving import ServingClient

        host, port = child.ready["address"]
        return [ServingClient(host, port) for _ in range(n or self.n_clients)]

    # -- timing -------------------------------------------------------------

    def closed(self, clients: list, cores: list, cpu_clock, rss_clock,
               warmup_ops: int, window_s: float = 1.0) -> ClosedResult:
        """Warm-up, then ``seconds`` of timed windows of about ``window_s``.

        ``cores`` are the ones the workload's processes run on: the host's
        speed is read there.  ``rss_clock()`` is read once, after the
        warm-up: memory after a fixed amount of work, whatever that speed.
        """
        n_windows = max(3, round(self.seconds / window_s))
        result = run_closed(
            clients,
            warmup_ops=warmup_ops,
            window_s=self.seconds / n_windows,
            n_windows=n_windows,
            cpu_clock=cpu_clock,
            host_factor=lambda: self.reference.host_factor(cores),
            on_warm=lambda: setattr(self, "rss_mb", rss_clock()),
        )
        self.tally.add(result.attempted, result.failed, "timed operations")
        self.tally.notes.extend(result.errors)
        self.phase("timed")
        return result

    def metrics(self, closed: ClosedResult, recall_at_10: float) -> dict:
        """The end-to-end metrics, and their raw readings on stderr."""
        latencies, raw = closed.latencies(), closed.latencies(raw=True)
        (OUT / f"windows-{self.name}.json").write_text(
            json.dumps([asdict(w) for w in closed.windows]) + "\n")
        print(
            f"{self.name} raw host={closed.host:.3f} setup_host={self.setup_host:.3f} "
            f"setup_s={self.setup_raw_s:.3f} "
            f"throughput_qps={closed.throughput(raw=True):.2f} "
            f"latency_p50_ms={percentile(raw, 50) * 1e3:.3f} "
            f"latency_p95_ms={percentile(raw, 95) * 1e3:.3f} "
            f"cpu_ms_per_op={closed.cpu_s_per_op(raw=True) * 1e3:.3f} "
            f"samples={len(raw)}",
            file=sys.stderr,
        )
        return {
            "setup_s": self.setup_s,
            "throughput_qps": closed.throughput(),
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p95_ms": percentile(latencies, 95) * 1e3,
            "cpu_ms_per_op": closed.cpu_s_per_op() * 1e3,
            "recall_at_10": recall_at_10,
            "stored_bytes_per_data_byte": self.stored_ratio(),
            "peak_rss_mb": self.rss_mb,
        }

    # -- verification -------------------------------------------------------

    def verify_knn(self, asks: list, direct=None, point: bool = False) -> float:
        """Answer the verification set through ``asks``; returns recall@10.

        ``direct`` is the same query as a direct library call on the same
        index: the two must agree to 6 decimals on every query.
        """
        queries = self.verification_queries(point)
        got = ask_all(asks, queries)
        if direct is not None:
            want = [knn_answer(direct(q)) for q in queries]
            self.tally.same_answers(got, want, "path differs from direct call")
        record_ids = np.arange(self.inputs.n_series, dtype=np.int64)
        found = recall(got, ground_truth(self.inputs.data, record_ids, queries))
        self.phase("verify")
        return found

    def verification_queries(self, point: bool) -> np.ndarray:
        scale = self.scale
        return self.inputs.verification_queries(
            scale.n_verify_point if point else scale.n_verify)

    # -- tear-down ----------------------------------------------------------

    def close(self) -> None:
        for child in self.children:
            try:
                child.stop()
            except Exception:
                child.kill()
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Library workload (the program runs inside the driver)
# ---------------------------------------------------------------------------


def probe_stream(run: Run, client: int, n_clients: int) -> Cursor:
    return Cursor(
        lambda c: list(zip(*run.inputs.probe_chunk(c))), client, n_clients
    )


def knn_stream(run: Run, client: int, n_clients: int) -> Cursor:
    return Cursor(run.inputs.knn_chunk, client, n_clients)


def lib_mpa(run: Run) -> dict:
    from repro.core import knn_multi_partitions_access

    run.build_index()
    index = run.load_library_index()

    def call(query):
        return knn_ok(knn_multi_partitions_access(index, query, k=K))

    closed = run.closed(
        [(knn_stream(run, 0, 1), call)], run.cores[:1],
        cpu_clock=time.process_time,
        rss_clock=lambda: peak_rss_mb([os.getpid()]),  # the inputs' too
        warmup_ops=100,
        # Nothing but one core's work, so it follows that core's every
        # change of speed: read the host four times as often as elsewhere.
        window_s=0.25,
    )
    recall_at_10 = run.verify_knn(
        [lambda q: knn_multi_partitions_access(index, q, k=K)]
    )
    return run.metrics(closed, recall_at_10)


# ---------------------------------------------------------------------------
# Served workloads (the program runs in child processes)
# ---------------------------------------------------------------------------


def _served_workload(run: Run, child: Child, make_client, strategy: str,
                     warmup_ops: int) -> dict:
    """Timed closed loop against ``child``, then verification over TCP."""
    from repro.core import KNN_STRATEGIES

    connections = run.connect(child)
    clients = [
        make_client(connection, j, len(connections))
        for j, connection in enumerate(connections)
    ]
    closed = run.closed(
        clients, run.cores,
        cpu_clock=lambda: cpu_seconds(child.pids),
        rss_clock=lambda: peak_rss_mb(child.pids),
        warmup_ops=warmup_ops,
    )
    index = run.oracle_index()
    recall_at_10 = run.verify_knn(
        [lambda q, c=c: c.knn(q, k=K, strategy=strategy) for c in connections],
        direct=lambda q: KNN_STRATEGIES[strategy](index, q, K),
        point=strategy == "target-node",
    )
    for connection in connections:
        connection.close()
    return run.metrics(closed, recall_at_10)


def point_client(run: Run, connection, client: int, n_clients: int):
    """Alternate an exact-match probe and a target-node 10-NN query."""
    streams = itertools.cycle(
        (probe_stream(run, client, n_clients), knn_stream(run, client, n_clients)))

    def fetch():
        return next(streams)()

    def call(item):
        if isinstance(item, tuple):
            probe, expected = item
            return exact_ok(connection.exact_match(probe), expected)
        return knn_ok(connection.knn(item, k=K, strategy="target-node"))

    return fetch, call


def serve_point(run: Run) -> dict:
    run.build_index()
    child = run.start("serve", "--index", str(run.index_dir))
    return _served_workload(
        run, child, lambda *args: point_client(run, *args), "target-node",
        warmup_ops=200,
    )


def start_cluster(run: Run, n_shards: int) -> Child:
    return run.start(
        "shard", "--index", str(run.index_dir), "--shards", str(n_shards),
        "--cores", ",".join(str(c) for c in run.cores), cores=run.cores,
    )


def require_two_cores(run: Run) -> None:
    if len(run.cores) < 2:
        # Two shards on one core measure time-slicing, not distribution.
        print("shard-mpa skipped(host: nproc<2)", flush=True)
        raise SystemExit(3)


def shard_mpa(run: Run) -> dict:
    require_two_cores(run)
    run.build_index()
    child = start_cluster(run, 2)

    def make_client(connection, client, n_clients):
        def call(query):
            return knn_ok(connection.knn(query, k=K, strategy="multi-partitions"))
        return knn_stream(run, client, n_clients), call

    return _served_workload(run, child, make_client, "multi-partitions", warmup_ops=50)


# -- ingest-mixed ---------------------------------------------------------------


class IngestClient:
    """One client's write-then-read cycles, and what the server acked."""

    def __init__(self, run: Run, connection, client: int, n_clients: int):
        self.connection = connection
        self._writes = Cursor(
            lambda c: np.split(run.inputs.write_chunk(c), 1024 // WRITE_BATCH),
            client, n_clients,
        )
        self._queries = knn_stream(run, client, n_clients)
        #: ``(record_ids, batch)`` of every acknowledged write.
        self.acked: list = []
        self.write_s: list = []
        self.read_s: list = []
        self.ends: list = []
        #: Replies that failed their check, kept whole for the report.
        self.problems: list = []

    def fetch(self):
        return self._writes(), self._queries()

    def call(self, item) -> bool:
        batch, query = item
        t0 = clock()
        ack = self.connection.write_batch(batch)
        t1 = clock()
        self.acked.append((ack["record_ids"], batch))
        answer = self.connection.knn(query, k=K, strategy="target-node")
        t2 = clock()
        self.write_s.append(t1 - t0)
        self.read_s.append(t2 - t1)
        self.ends.append(t2)
        ok = (
            len(ack["record_ids"]) == len(batch) and ack["durable"]
            and knn_ok(answer)
        )
        if not ok:
            self.problems.append({"ack": {k: ack[k] for k in ("record_ids", "durable")},
                                  "answer": answer})
        return ok


def recover(run: Run, wal: Path):
    """What a restart does: ``load_index`` + ``replay_wal``; returns the
    recovered index, the seconds it all took, and the replay's share."""
    from repro.core import load_index, replay_wal

    started = clock()
    index = load_index(run.index_dir)
    loaded = clock()
    replay_wal(index, wal)
    ended = clock()
    return index, ended - started, ended - loaded


def check_recovered(run: Run, index, clients: list, live_answers: list) -> float:
    """Durability after SIGKILL; returns recall@10 on the recovered index."""
    from repro.core import exact_match, knn_target_node_access

    acked_ids = [rid for c in clients for ids, _ in c.acked for rid in ids]
    acked_rows = [row for c in clients for _, batch in c.acked for row in batch]
    lost = sum(
        rid not in exact_match(index, row).record_ids
        for rid, row in zip(acked_ids, acked_rows)
    )
    run.tally.add(len(acked_ids), lost, "acknowledged writes lost by the crash")
    run.tally.check(
        index.n_records == run.inputs.n_series + len(acked_ids),
        f"n_records {index.n_records} != base + acked",
    )
    queries = run.verification_queries(point=True)
    recovered = [knn_answer(knn_target_node_access(index, q, K)) for q in queries]
    run.tally.same_answers(recovered, live_answers, "recovered answers differ from live")
    data = np.vstack([run.inputs.data, *acked_rows]) if acked_rows else run.inputs.data
    record_ids = np.concatenate(
        [np.arange(run.inputs.n_series), np.asarray(acked_ids, dtype=np.int64)]
    )
    return recall(recovered, ground_truth(data, record_ids, queries))


def live_answers(run: Run, connections: list) -> list:
    """The verification answers of the live server, once it has settled.

    A rebalance cycle that commits between these answers and the SIGKILL
    would make the replayed index differ from them through no fault of
    the log, so wait until the rebalancer has been idle for two polls.
    """
    seen = None
    for _ in range(30):
        rebalance = connections[0].stats()["rebalance"]
        state = (rebalance["cycles_total"], rebalance["in_progress"])
        if state == seen and not rebalance["in_progress"]:
            break
        seen = state
        time.sleep(0.3)
    return ask_all(
        [lambda q, c=c: c.knn(q, k=K, strategy="target-node") for c in connections],
        run.verification_queries(point=True),
    )


def ingest_mixed(run: Run) -> dict:
    run.build_index()
    wal = run.dir / "ingest.wal"
    child = run.start("serve", "--index", str(run.index_dir), "--wal", str(wal))
    connections = run.connect(child)
    clients = [
        IngestClient(run, connection, j, len(connections))
        for j, connection in enumerate(connections)
    ]
    closed = run.closed(
        [(c.fetch, c.call) for c in clients], run.cores,
        cpu_clock=lambda: cpu_seconds(child.pids),
        rss_clock=lambda: peak_rss_mb(child.pids),
        warmup_ops=30,
    )
    run.tally.notes.extend(repr(p) for c in clients for p in c.problems[:2])
    live = live_answers(run, connections)
    child.kill()  # SIGKILL: no drain, no final flush
    for connection in connections:
        connection.close()
    index, _recovery_s, _replay_s = recover(run, wal)
    recall_at_10 = check_recovered(run, index, clients, live)
    return run.metrics(closed, recall_at_10)


WORKLOADS = {
    "lib-mpa": lib_mpa,
    "serve-point": serve_point,
    "shard-mpa": shard_mpa,
    "ingest-mixed": ingest_mixed,
}
