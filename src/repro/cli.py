"""Command-line interface: ``python -m repro <command>``.

Covers the end-to-end workflow a downstream user needs without writing
code:

* ``generate`` — synthesize one of the four benchmark datasets to ``.npz``
* ``build`` — build a TARDIS index over a dataset and persist it
* ``info`` — summarize a persisted index
* ``exact`` — exact-match lookup of a series against a persisted index
* ``knn`` — kNN with an approximate strategy or the exact search
* ``range`` — all series within a Euclidean radius
* ``stats`` — pretty-print a trace (or ``repro.perf/v1`` kernel
  report) previously saved with ``--trace``/``--perf``
* ``serve`` — long-lived JSON-lines TCP query server over an index
  (``--wal``/``--rebalance`` enable streamed writes with durability
  and online re-packing)
* ``replay`` — reconstruct an index from a base directory plus a
  serve WAL (crash recovery; ``--check`` deep-validates the result)
* ``query-remote`` — query (or fetch SLO stats from) a running server
* ``top`` — live operational view of a running server (SLO, queue,
  result cache, partition skew), refreshed on an interval

Series inputs are ``.npy`` files (one 1-D array) or ``--row N`` of a
generated ``.npz`` dataset.

Observability (docs/OBSERVABILITY.md): ``-v``/``-q`` tune diagnostic
logging; ``build``/``exact``/``knn``/``range`` accept ``--trace FILE``
(JSON span tree of the run), ``--metrics FILE`` (Prometheus-style
counters) and ``--perf FILE`` (kernel-level cost counters as a
``repro.perf/v1`` report).  ``serve`` traces every request by default
(``--no-trace-requests`` opts out), journals slow queries
(``--slow-query-ms``, ``--journal-sample``, ``--journal FILE``), and
dumps its span forest with ``--trace-file FILE``; ``query-remote
--trace`` prints one request's span timeline.

Execution (DESIGN.md §9): every command runs its tasks inline, in task
order; the simulated cluster's parallelism is ``TardisConfig.n_workers``
in the cost model, not threads in this process.

Serving (docs/SERVING.md): ``serve`` exposes admission control
(``--queue``/``--policy``), batching (``--batch-max`` caps a window;
windows form from backlog, ``--batch-delay-ms`` opts into a linger),
the keyed result cache (``--result-cache``) and an SLO report
(``--report FILE`` on shutdown, or live via ``query-remote --stats``).
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import sys
import threading
from pathlib import Path

import numpy as np

from . import telemetry
from .core import (
    TardisConfig,
    build_tardis_index,
    exact_match,
    knn_exact,
    knn_multi_partitions_access,
    knn_one_partition_access,
    knn_target_node_access,
    range_query,
)
from .core.persistence import load_index, save_index
from .faults.errors import PartialResultError
from .tsdb import DATASET_GENERATORS, TimeSeriesDataset, make_dataset
from .tsdb.io import read_csv_dataset, read_npz_dataset, read_ucr

__all__ = ["main"]

logger = logging.getLogger(__name__)

_STRATEGIES = {
    "target-node": knn_target_node_access,
    "one-partition": knn_one_partition_access,
    "multi-partitions": knn_multi_partitions_access,
    "exact": knn_exact,
}


def _save_dataset(dataset: TimeSeriesDataset, path: Path) -> None:
    np.savez_compressed(
        path, values=dataset.values, record_ids=dataset.record_ids,
        name=np.array(dataset.name),
    )


def _load_dataset(path: Path) -> TimeSeriesDataset:
    """Load a dataset by extension: .npz (native), .csv/.tsv, or .txt
    (UCR archive format; the label column is dropped)."""
    suffix = path.suffix.lower()
    if suffix == ".npz":
        return read_npz_dataset(path)
    if suffix in (".csv", ".tsv"):
        return read_csv_dataset(
            path, delimiter="\t" if suffix == ".tsv" else ","
        )
    if suffix == ".txt":
        dataset, _labels = read_ucr(path)
        return dataset
    raise SystemExit(f"unsupported dataset format: {path}")


def _load_query(args) -> np.ndarray:
    if args.query is not None:
        return np.load(args.query, allow_pickle=False)
    if args.data is None or args.row is None:
        raise SystemExit("provide either --query FILE.npy or --data + --row")
    dataset = _load_dataset(Path(args.data))
    return dataset.values[args.row]


def _cmd_generate(args) -> int:
    dataset = make_dataset(args.dataset, args.count, seed=args.seed)
    _save_dataset(dataset, Path(args.out))
    print(
        f"wrote {len(dataset):,} {dataset.name} series of length "
        f"{dataset.length} to {args.out}"
    )
    return 0


def _is_normalized(dataset: TimeSeriesDataset) -> bool:
    sample = dataset.values[: min(len(dataset), 256)]
    return bool(np.abs(sample.mean(axis=1)).max() <= 1e-3)


def _cmd_build(args) -> int:
    dataset = _load_dataset(Path(args.data))
    # Normalize only when needed: re-normalizing already-normalized data
    # would perturb float bits and break exact-match on the original rows.
    if not args.no_normalize and not _is_normalized(dataset):
        logger.info("z-normalizing input (disable with --no-normalize)")
        dataset = dataset.z_normalized()
    config = TardisConfig(
        g_max_size=args.partition_capacity,
        l_max_size=args.leaf_capacity,
        sampling_fraction=args.sampling,
    )
    index = build_tardis_index(dataset, config, clustered=not args.unclustered)
    save_index(index, Path(args.out))
    ledger = index.construction_ledger
    print(
        f"built index over {index.n_records:,} series: "
        f"{len(index.partitions)} partitions, simulated construction "
        f"{ledger.clock_s:.2f} s; saved to {args.out}"
    )
    return 0


def _cmd_info(args) -> int:
    index = load_index(Path(args.index))
    sizes = [p.n_records for p in index.partitions.values()]
    print(f"dataset        : {index.dataset_name}")
    print(f"records        : {index.n_records:,} x {index.series_length}")
    print(f"clustered      : {index.clustered}")
    print(f"partitions     : {len(index.partitions)} "
          f"(fill min/median/max {min(sizes)}/{int(np.median(sizes))}/{max(sizes)})")
    print(f"global index   : {index.global_index_nbytes() / 1024:.1f} KB, "
          f"height {index.global_index.tree.height()}")
    print(f"local indices  : {index.local_index_nbytes() / 1024:.1f} KB "
          f"(incl. {index.bloom_nbytes() / 1024:.1f} KB bloom filters)")
    return 0


def _cmd_exact(args) -> int:
    index = load_index(Path(args.index))
    query = _load_query(args)
    result = exact_match(index, query, use_bloom=not args.no_bloom)
    if result.found:
        print(f"found record ids: {result.record_ids}")
    else:
        how = "bloom filter" if result.bloom_rejected else "partition lookup"
        print(f"not found (rejected by {how})")
    return 0 if result.found else 1


def _cmd_knn(args) -> int:
    index = load_index(Path(args.index))
    query = _load_query(args)
    strategy = _STRATEGIES[args.strategy]
    result = strategy(index, query, args.k)
    print(f"{args.strategy} {args.k}-NN "
          f"({result.partitions_loaded} partitions, "
          f"{result.candidates_examined:,} candidates):")
    if result.degraded:
        missing = ", ".join(str(p) for p in result.missing_partitions)
        print(f"  (degraded: partitions {missing} unavailable; answer "
              "truncated to provably correct prefix)")
    for neighbor in result.neighbors:
        print(f"  record {neighbor.record_id:>8}  distance {neighbor.distance:.4f}")
    if args.explain:
        from .core import explain

        print()
        print(explain(result))
    return 0


def _cmd_range(args) -> int:
    index = load_index(Path(args.index))
    query = _load_query(args)
    result = range_query(index, query, args.radius)
    print(f"{len(result.neighbors)} series within radius {args.radius} "
          f"({result.partitions_loaded} partitions loaded):")
    for neighbor in result.neighbors[: args.limit]:
        print(f"  record {neighbor.record_id:>8}  distance {neighbor.distance:.4f}")
    if len(result.neighbors) > args.limit:
        print(f"  ... and {len(result.neighbors) - args.limit} more")
    return 0


def _cmd_serve(args) -> int:
    from .core.wal import WalError, replay_wal
    from .serving import QueryService, TardisServer

    index = load_index(Path(args.index))
    if args.wal and Path(args.wal).exists() and Path(args.wal).stat().st_size:
        # A restart: the log extends this base snapshot.  Replay it so the
        # served index holds every acknowledged write and new record ids
        # follow the logged ones.
        try:
            replayed = replay_wal(index, args.wal)
        except WalError as exc:
            raise SystemExit(f"corrupt WAL {args.wal}: {exc}")
        print(
            f"replayed {args.wal}: {replayed.appends_applied} appends, "
            f"{replayed.rebalances_replayed} rebalance cycles "
            f"({replayed.rebalances_discarded} discarded), "
            f"torn_tail={replayed.torn_tail}",
            flush=True,
        )
    if not args.no_trace_requests:
        # Request tracing is on by default for the serving tier: spans
        # are the per-request timeline behind query-remote --trace and
        # the trace wire op.  Bound the finished-root ring so a
        # long-lived server cannot grow without limit.
        tracer = telemetry.enable_tracing()
        tracer.set_root_limit(args.trace_roots)
    # The linger default is QueryService's own; the flag only overrides.
    linger = (
        {} if args.batch_delay_ms is None
        else {"max_delay_ms": args.batch_delay_ms}
    )
    try:
        service = QueryService(
            index,
            queue_capacity=args.queue,
            policy=args.policy,
            max_batch=args.batch_max,
            **linger,
            result_cache_size=args.result_cache,
            slow_query_threshold_ms=args.slow_query_ms,
            journal_sample=args.journal_sample,
            default_deadline_ms=args.deadline_ms,
            wal=args.wal,
            rebalance=args.rebalance,
            rebalance_overflow=args.rebalance_overflow,
            rebalance_interval_s=args.rebalance_interval,
        )
        server = TardisServer(service, args.host, args.port)
    except (ValueError, OSError, WalError) as exc:
        raise SystemExit(str(exc))
    server.start()
    host, port = server.address
    ingest = ""
    if args.wal:
        ingest = f", wal={args.wal}"
        if args.rebalance:
            ingest += f", rebalance@{args.rebalance_overflow}x"
    print(
        f"serving {args.index} on {host}:{port} "
        f"(policy={args.policy}, queue={args.queue}, "
        f"batch<={args.batch_max}/{service.max_delay_s * 1000.0:g}ms"
        f"{ingest}; "
        "Ctrl-C to stop)",
        flush=True,
    )
    stop = threading.Event()
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, lambda *_: stop.set())
    try:
        stop.wait(args.max_seconds)
    except KeyboardInterrupt:
        pass
    server.close(drain=True)
    report = service.stats()
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
        logger.info("wrote SLO report to %s", args.report)
    if args.journal:
        telemetry.write_journal(service.journal, args.journal)
        logger.info("wrote event journal to %s", args.journal)
    if args.trace_file:
        telemetry.write_trace(telemetry.get_tracer(), args.trace_file)
        logger.info("wrote request traces to %s", args.trace_file)
    latency = report["latency"]
    print(
        f"served {report['requests_completed']} requests "
        f"({report['requests_shed']} shed); p50/p95/p99 "
        f"{latency['p50_s'] * 1000:.2f}/{latency['p95_s'] * 1000:.2f}/"
        f"{latency['p99_s'] * 1000:.2f} ms"
    )
    return 0


def _cmd_replay(args) -> int:
    """Reconstruct an index from its base directory plus a WAL.

    Appends re-insert with their original record ids; committed
    rebalance cycles re-run deterministically at their commit points,
    so the replayed index answers queries bit-identically to the live
    process over every acknowledged write.  Uncommitted cycles (crash
    mid-split/mid-swap) are discarded — the pre-split layout stands.
    """
    from .core.wal import WalError, replay_wal

    index = load_index(Path(args.index))
    try:
        report = replay_wal(index, args.wal)
    except WalError as exc:
        raise SystemExit(f"corrupt WAL {args.wal}: {exc}")
    doc = {
        "index": str(args.index),
        "wal": str(args.wal),
        "lines_read": report.lines_read,
        "appends_applied": report.appends_applied,
        "rebalances_replayed": report.rebalances_replayed,
        "rebalances_discarded": report.rebalances_discarded,
        "torn_tail": report.torn_tail,
        "n_records": index.n_records,
        "n_partitions": len(index.partitions),
    }
    code = 0
    if args.check:
        try:
            index.validate()
            doc["valid"] = True
        except AssertionError as exc:
            doc["valid"] = False
            doc["validation_error"] = str(exc)
            code = 1
    print(json.dumps(doc, indent=2))
    if args.out:
        save_index(index, Path(args.out))
        logger.info("persisted replayed index to %s", args.out)
    return code


def _cmd_serve_sharded(args) -> int:
    from .serving import TardisServer
    from .sharding import (
        RouterIndex,
        RouterService,
        ShardCluster,
        plan_shards,
    )

    index = load_index(Path(args.index))
    if not args.no_trace_requests:
        tracer = telemetry.enable_tracing()
        tracer.set_root_limit(args.trace_roots)
    plan = plan_shards(
        {pid: p.n_records for pid, p in index.partitions.items()},
        args.shards, args.replicas,
    )
    service_kwargs = {
        "result_cache_size": args.result_cache,
        "slow_query_threshold_ms": args.slow_query_ms,
    }
    if args.mode == "threads":
        cluster = ShardCluster(
            plan, mode="threads", index=index,
            service_kwargs=service_kwargs,
        )
    else:
        cluster = ShardCluster(
            plan, mode="processes", index_dir=args.index,
            faults_path=args.faults, service_kwargs=service_kwargs,
            tracing=not args.no_trace_requests,
        )
    try:
        cluster.start()
        router = RouterService(
            RouterIndex.from_index(index), plan, cluster.addresses,
            queue_capacity=args.queue,
            policy=args.policy,
            workers=args.workers,
            result_cache_size=args.result_cache,
            slow_query_threshold_ms=args.slow_query_ms,
            journal_sample=args.journal_sample,
            default_deadline_ms=args.deadline_ms,
            call_timeout_s=args.call_timeout,
            trace_sample=args.trace_sample,
            scrape_interval_s=args.scrape_interval,
        )
        server = TardisServer(router, args.host, args.port)
    except (ValueError, OSError, RuntimeError) as exc:
        cluster.stop()
        raise SystemExit(str(exc))
    server.start()
    host, port = server.address
    shard_ports = [port for _host, port in cluster.addresses]
    print(
        f"serving {args.index} on {host}:{port} "
        f"(shards={args.shards} R={args.replicas} mode={args.mode} "
        f"ports={shard_ports}, policy={args.policy}, queue={args.queue}; "
        f"Ctrl-C to stop)",
        flush=True,
    )
    stop = threading.Event()
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, lambda *_: stop.set())
    try:
        stop.wait(args.max_seconds)
    except KeyboardInterrupt:
        pass
    server.close(drain=True)
    if args.journal:
        # Drain the shards before they go away: the merged journal
        # carries router records plus every shard's, provenance-tagged.
        router.write_cluster_journal(args.journal)
        logger.info("wrote merged cluster journal to %s", args.journal)
    cluster.stop()
    report = router.stats()
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
        logger.info("wrote SLO report to %s", args.report)
    if args.trace_file:
        telemetry.write_trace(telemetry.get_tracer(), args.trace_file)
        logger.info("wrote cluster traces to %s", args.trace_file)
    latency = report["latency"]
    print(
        f"served {report['requests_completed']} requests "
        f"({report['requests_shed']} shed, "
        f"{report['requests_degraded']} degraded); p50/p95/p99 "
        f"{latency['p50_s'] * 1000:.2f}/{latency['p95_s'] * 1000:.2f}/"
        f"{latency['p99_s'] * 1000:.2f} ms"
    )
    return 0


def _cmd_query_remote(args) -> int:
    from .serving import (
        DeadlineExceededError,
        OverloadedError,
        RequestTimeoutError,
        ServingClient,
    )

    try:
        client = ServingClient(args.host, args.port, timeout=args.timeout)
    except OSError as exc:
        raise SystemExit(f"cannot connect to {args.host}:{args.port}: {exc}")
    with client:
        try:
            if args.ping:
                ok = client.ping()
                print("pong" if ok else "no pong")
                return 0 if ok else 1
            if args.stats:
                print(json.dumps(client.stats(), indent=2))
                return 0
            if args.journal is not None:
                print(json.dumps(client.journal(n=args.journal), indent=2))
                return 0
            query = _load_query(args)
            if args.op == "exact":
                result = client.exact_match(
                    query, use_bloom=not args.no_bloom, trace=args.trace,
                    deadline_ms=args.deadline_ms,
                )
                if result["found"]:
                    print(f"found record ids: {result['record_ids']}")
                    code = 0
                else:
                    how = (
                        "bloom filter" if result["bloom_rejected"]
                        else "partition lookup"
                    )
                    print(f"not found (rejected by {how})")
                    code = 1
            else:
                result = client.knn(
                    query, k=args.k, strategy=args.strategy, pth=args.pth,
                    trace=args.trace, deadline_ms=args.deadline_ms,
                )
                print(f"{args.strategy} {args.k}-NN via "
                      f"{args.host}:{args.port} "
                      f"({result['partitions_loaded']} partitions, "
                      f"{result['candidates_examined']:,} candidates):")
                for record_id, distance in zip(
                    result["record_ids"], result["distances"]
                ):
                    print(f"  record {record_id:>8}  "
                          f"distance {distance:.4f}")
                if result.get("degraded"):
                    missing = result.get("missing_partitions", [])
                    print(f"  (degraded: partitions {missing} unavailable)")
                code = 0
            if args.trace:
                _print_remote_trace(client.last_trace)
            return code
        except OverloadedError as exc:
            print(f"server overloaded: {exc}", file=sys.stderr)
            return 2
        except DeadlineExceededError as exc:
            print(f"deadline exceeded: {exc}", file=sys.stderr)
            return 2
        except PartialResultError as exc:
            print(f"partial result: {exc}", file=sys.stderr)
            return 2
        except RequestTimeoutError as exc:
            # Distinct from a server-side deadline: the *socket* timed
            # out, so the answer (if any) is unknowable client-side.
            print(f"timeout: {exc}", file=sys.stderr)
            return 3
        except ConnectionError as exc:
            print(f"connection lost: {exc}", file=sys.stderr)
            return 3


def _print_remote_trace(trace: dict | None) -> None:
    """Render the span timeline a traced remote query brought back."""
    print()
    if trace is None:
        print("no trace returned (server started with --no-trace-requests?)")
        return
    print(f"trace {trace.get('trace_id', '?')}:")
    doc = {"schema": telemetry.TRACE_SCHEMA, "spans": [trace]}
    try:
        summary = telemetry.summarize_trace(doc)
    except ValueError as exc:
        print(f"  (malformed trace: {exc})")
        return
    # Drop the "trace: N root span(s)" banner; the id line covers it.
    print("\n".join(summary.splitlines()[1:]))


def _cmd_trace(args) -> int:
    """Render a cluster request's scatter/gather waterfall.

    With a trace id, fetches that request's stitched span tree from the
    server (router traces include the re-parented shard segments);
    without one, renders the slowest of the last N retained traces.
    """
    from .serving import ServingClient

    try:
        client = ServingClient(args.host, args.port, timeout=args.timeout)
    except OSError as exc:
        raise SystemExit(f"cannot connect to {args.host}:{args.port}: {exc}")
    with client:
        try:
            payload = client.traces(n=args.n, trace_id=args.trace_id)
        except (ConnectionError, RuntimeError, OSError) as exc:
            raise SystemExit(f"trace fetch failed: {exc}")
    if not payload.get("enabled"):
        print("tracing is disabled on the server "
              "(started with --no-trace-requests?)", file=sys.stderr)
        return 1
    traces = payload.get("traces") or []
    if not traces:
        what = args.trace_id or "any recent trace"
        print(f"no trace found for {what}", file=sys.stderr)
        return 1
    if args.trace_id:
        doc = traces[0]
    else:
        doc = max(traces, key=lambda t: t.get("duration_s", 0.0))
    print(telemetry.render_waterfall(doc, width=args.width))
    return 0


def _cmd_top(args) -> int:
    """Poll a running server's SLO/journal state and print live rows."""
    from .serving import ServingClient

    try:
        client = ServingClient(args.host, args.port, timeout=args.timeout)
    except OSError as exc:
        raise SystemExit(f"cannot connect to {args.host}:{args.port}: {exc}")
    import time as _time

    previous_completed: int | None = None
    previous_at: float | None = None
    iterations = args.iterations
    with client:
        while True:
            try:
                report = client.stats()
            except (ConnectionError, RuntimeError, OSError) as exc:
                print(f"server went away: {exc}", file=sys.stderr)
                return 1
            now = _time.monotonic()
            completed = report["requests_completed"]
            if previous_completed is None:
                qps = 0.0
            else:
                dt = max(now - previous_at, 1e-9)
                qps = (completed - previous_completed) / dt
            previous_completed, previous_at = completed, now
            latency = report["latency"]
            skew = report.get("partition_skew", {})
            cache = report.get("result_cache_hit_rate", 0.0)
            journal = report.get("journal", {})
            slow = journal.get("by_kind", {}).get("slow-query", 0)
            kernels = report.get("kernels") or {}
            hot = ""
            if kernels:
                # The hottest kernel by cumulative seconds — the live
                # "where do this server's cycles go" column.
                name, row = max(
                    kernels.items(),
                    key=lambda kv: kv[1].get("seconds", 0.0),
                )
                hot = f" | hot {name} {row.get('seconds', 0.0):.2f}s"
            print(
                f"qps {qps:7.1f} | "
                f"p50/p95/p99 {latency['p50_s'] * 1e3:6.2f}/"
                f"{latency['p95_s'] * 1e3:6.2f}/"
                f"{latency['p99_s'] * 1e3:6.2f} ms | "
                f"queue {report['queue_depth']:3d} | "
                f"shed {report['requests_shed']} | "
                f"cache {cache:4.0%} | "
                f"skew {skew.get('skew', 0.0):4.1f}x "
                f"({skew.get('partitions_touched', 0)} parts) | "
                f"slow {slow}" + hot,
                flush=True,
            )
            for shard in report.get("shards", []):
                status = "up  " if shard.get("up") else "DOWN"
                host, port = shard.get("address", ("?", 0))
                print(
                    f"  shard {shard['shard_id']} [{status}] "
                    f"{host}:{port} | "
                    f"in-flight {shard.get('in_flight', 0):3d} | "
                    f"calls {shard.get('requests', 0)} | "
                    f"failures {shard.get('failures', 0)}",
                    flush=True,
                )
            cluster = report.get("cluster")
            if cluster:
                _print_cluster_view(cluster)
                if not args.no_waterfall and report.get("tracing"):
                    _print_slowest_waterfall(client)
            if iterations is not None:
                iterations -= 1
                if iterations <= 0:
                    return 0
            try:
                _time.sleep(args.interval)
            except KeyboardInterrupt:
                return 0


def _print_cluster_view(cluster: dict) -> None:
    """The federated per-shard rows of cluster ``top`` (scraped shard
    registries: true per-process numbers, unlike the router-side call
    counters above)."""
    latency = cluster.get("shard_latency")
    tail = ""
    if latency:
        tail = (
            f" | shard p50/p95/p99 "
            f"{latency['p50_s'] * 1e3:.2f}/{latency['p95_s'] * 1e3:.2f}/"
            f"{latency['p99_s'] * 1e3:.2f} ms "
            f"({latency['samples']} merged samples)"
        )
    print(
        f"  cluster: {cluster.get('scrapes', 0)} scrapes "
        f"({cluster.get('failed_scrapes', 0)} failed)" + tail,
        flush=True,
    )
    for row in cluster.get("shards", []):
        queue = row.get("queue_depth")
        print(
            f"    shard {row['shard_id']} | "
            f"qps {row.get('qps', 0.0):7.1f} | "
            f"shard-knn {row.get('shard_knn_requests', 0):.0f} | "
            f"queue {'-' if queue is None else int(queue)} | "
            f"journal {row.get('journal_events', 0)}",
            flush=True,
        )


def _print_slowest_waterfall(client) -> None:
    """Cluster ``top``'s timeline pane: the slowest recent request's
    cross-shard waterfall (router segments + re-parented shard spans)."""
    try:
        payload = client.traces(n=16)
    except (ConnectionError, RuntimeError, OSError):
        return
    traces = payload.get("traces") or []
    if not traces:
        return
    doc = max(traces, key=lambda t: t.get("duration_s", 0.0))
    rendered = telemetry.render_waterfall(doc, width=40)
    for line in rendered.splitlines():
        print(f"  {line}", flush=True)


def _cmd_stats(args) -> int:
    """Pretty-print a trace saved with ``--trace`` or a kernel report
    saved with ``--perf`` (dispatched on the file's ``schema``)."""
    try:
        doc = json.loads(Path(args.trace_file).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read trace {args.trace_file}: {exc}")
    if isinstance(doc, dict) and doc.get("schema") == telemetry.PERF_SCHEMA:
        try:
            telemetry.validate_perf(doc)
        except ValueError as exc:
            raise SystemExit(f"invalid perf report {args.trace_file}: {exc}")
        print(telemetry.summarize_kernels(doc["kernels"], limit=args.depth))
        return 0
    try:
        print(telemetry.summarize_trace(doc, max_depth=args.depth))
    except ValueError as exc:
        raise SystemExit(f"invalid trace {args.trace_file}: {exc}")
    return 0


def _add_telemetry_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--trace", metavar="FILE",
                     help="write a JSON execution trace of this command")
    cmd.add_argument("--metrics", metavar="FILE",
                     help="write Prometheus-style metrics for this command")
    cmd.add_argument("--perf", metavar="FILE",
                     help="enable kernel cost counters and write a "
                          "repro.perf/v1 report for this command")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TARDIS distributed time series index (ICDE'19 reproduction)",
    )
    from . import __version__

    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    # Shared flags, accepted both before and after the subcommand.  The
    # subcommand's copies default to SUPPRESS: a subparser's defaults
    # would otherwise overwrite what was given before the subcommand.
    common = argparse.ArgumentParser(add_help=False)
    suppress = argparse.SUPPRESS
    for p, zero, unset in ((parser, 0, None), (common, suppress, suppress)):
        p.add_argument("-v", "--verbose", action="count", default=zero,
                       help="more diagnostic logging (repeatable)")
        p.add_argument("-q", "--quiet", action="count", default=zero,
                       help="less diagnostic logging (repeatable)")
        p.add_argument("--faults", metavar="PLAN", default=unset,
                       help="inject faults from a repro.faults/v1 plan "
                            "(JSON file) for this command")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    gen = add_parser("generate", help="synthesize a benchmark dataset")
    gen.add_argument("--dataset", choices=sorted(DATASET_GENERATORS),
                     required=True)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=_cmd_generate)

    build = add_parser("build", help="build and persist a TARDIS index")
    build.add_argument("--data", required=True, help="dataset .npz")
    build.add_argument("--out", required=True, help="index directory")
    build.add_argument("--partition-capacity", type=int,
                       default=TardisConfig().g_max_size)
    build.add_argument("--leaf-capacity", type=int,
                       default=TardisConfig().l_max_size)
    build.add_argument("--sampling", type=float,
                       default=TardisConfig().sampling_fraction)
    build.add_argument("--unclustered", action="store_true")
    build.add_argument("--no-normalize", action="store_true",
                       help="skip z-normalization (data is already normalized)")
    _add_telemetry_flags(build)
    build.set_defaults(fn=_cmd_build)

    info = add_parser("info", help="summarize a persisted index")
    info.add_argument("--index", required=True)
    info.set_defaults(fn=_cmd_info)

    for name, help_text in (
        ("exact", "exact-match lookup"),
        ("knn", "kNN search (approximate strategies or exact)"),
        ("range", "all series within a radius"),
    ):
        cmd = add_parser(name, help=help_text)
        cmd.add_argument("--index", required=True)
        cmd.add_argument("--query", help="query series .npy")
        cmd.add_argument("--data", help="dataset .npz to take --row from")
        cmd.add_argument("--row", type=int, help="row of --data to query")
        _add_telemetry_flags(cmd)
        if name == "exact":
            cmd.add_argument("--no-bloom", action="store_true")
            cmd.set_defaults(fn=_cmd_exact)
        elif name == "knn":
            cmd.add_argument("--k", type=int, default=10)
            cmd.add_argument("--strategy", choices=sorted(_STRATEGIES),
                             default="multi-partitions")
            cmd.add_argument("--explain", action="store_true",
                             help="print the execution report")
            cmd.set_defaults(fn=_cmd_knn)
        else:
            cmd.add_argument("--radius", type=float, required=True)
            cmd.add_argument("--limit", type=int, default=20,
                             help="max results to print")
            cmd.set_defaults(fn=_cmd_range)

    srv = add_parser("serve", help="serve queries over TCP (JSON lines)")
    srv.add_argument("--index", required=True)
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=0,
                     help="TCP port (0 picks a free one, printed at start)")
    srv.add_argument("--result-cache", type=int, default=1024, metavar="N",
                     help="keyed result-cache entries (0 disables)")
    srv.add_argument("--queue", type=int, default=256, metavar="N",
                     help="admission-queue capacity")
    srv.add_argument("--policy", choices=("block", "shed"), default="block",
                     help="backpressure when the queue is full")
    srv.add_argument("--batch-max", type=int, default=16, metavar="N",
                     help="most requests one batch window takes")
    srv.add_argument("--batch-delay-ms", type=float, default=None,
                     metavar="MS",
                     help="hold a window open until MS after its first "
                          "request arrived (default: no linger; a window "
                          "is what queued while the last one ran)")
    srv.add_argument("--max-seconds", type=float, default=None, metavar="S",
                     help="stop after S seconds (default: run until signal)")
    srv.add_argument("--report", metavar="FILE",
                     help="write the SLO report as JSON on shutdown")
    srv.add_argument("--no-trace-requests", action="store_true",
                     help="disable per-request tracing (on by default)")
    srv.add_argument("--trace-roots", type=int, default=512, metavar="N",
                     help="finished request traces kept in memory")
    srv.add_argument("--trace-file", metavar="FILE",
                     help="write retained request traces as JSON on shutdown")
    srv.add_argument("--slow-query-ms", type=float, default=100.0,
                     metavar="MS",
                     help="journal requests slower than MS as slow-query")
    srv.add_argument("--journal-sample", type=float, default=0.0,
                     metavar="P",
                     help="also journal a P fraction of all requests "
                          "(0..1, seeded)")
    srv.add_argument("--journal", metavar="FILE",
                     help="write the event journal as JSON lines on shutdown")
    srv.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                     help="default per-request latency budget; queued "
                          "requests past it are shed, never executed")
    srv.add_argument("--wal", metavar="FILE", default=None,
                     help="write-ahead log for streamed writes: appends "
                          "are fsynced here before they are acknowledged, "
                          "and 'repro replay' reconstructs the index from "
                          "the base directory plus this log after a crash; "
                          "a non-empty log is replayed onto --index before "
                          "serving, so a restart keeps its writes")
    srv.add_argument("--rebalance", action="store_true",
                     help="run the online re-packer: overflowing "
                          "partitions are split in the background "
                          "(snapshot/repack/swap) without blocking reads")
    srv.add_argument("--rebalance-overflow", type=float, default=1.5,
                     metavar="X",
                     help="overflow watermark: repack partitions above "
                          "X times the configured capacity")
    srv.add_argument("--rebalance-interval", type=float, default=0.25,
                     metavar="S",
                     help="seconds between rebalancer watermark checks")
    srv.add_argument("--perf", metavar="FILE",
                     help="enable kernel cost counters for the server's "
                          "lifetime and write a repro.perf/v1 report on "
                          "shutdown (repro top shows the hot kernel live)")
    srv.set_defaults(fn=_cmd_serve)

    rpl = add_parser("replay",
                     help="replay a write-ahead log onto its base index")
    rpl.add_argument("--index", required=True,
                     help="base index directory the WAL was opened against")
    rpl.add_argument("--wal", required=True,
                     help="WAL file written by serve --wal")
    rpl.add_argument("--check", action="store_true",
                     help="deep-validate the replayed index (exit 1 on "
                          "any violated invariant)")
    rpl.add_argument("--out", metavar="DIR", default=None,
                     help="persist the replayed index to DIR")
    rpl.set_defaults(fn=_cmd_replay)

    shrv = add_parser("serve-sharded",
                      help="serve queries through a sharded cluster "
                           "(N shard servers + a scatter/gather router)")
    shrv.add_argument("--index", required=True,
                      help="persisted index directory (shards load their "
                           "subsets from it)")
    shrv.add_argument("--shards", type=int, default=2, metavar="N",
                      help="shard server count")
    shrv.add_argument("--replicas", type=int, default=0, metavar="R",
                      help="replica copies per partition (0..N-1)")
    shrv.add_argument("--mode", choices=("processes", "threads"),
                      default="processes",
                      help="shard isolation: spawned processes (default) "
                           "or in-process threads")
    shrv.add_argument("--host", default="127.0.0.1")
    shrv.add_argument("--port", type=int, default=0,
                      help="router TCP port (0 picks a free one)")
    shrv.add_argument("--workers", type=int, default=8, metavar="N",
                      help="router worker threads")
    shrv.add_argument("--queue", type=int, default=256, metavar="N",
                      help="router admission-queue capacity")
    shrv.add_argument("--policy", choices=("block", "shed"), default="block",
                      help="backpressure when the router queue is full")
    shrv.add_argument("--result-cache", type=int, default=1024, metavar="N",
                      help="keyed result-cache entries (0 disables)")
    shrv.add_argument("--call-timeout", type=float, default=30.0,
                      metavar="S", help="router→shard socket timeout")
    shrv.add_argument("--max-seconds", type=float, default=None, metavar="S",
                      help="stop after S seconds (default: run until signal)")
    shrv.add_argument("--report", metavar="FILE",
                      help="write the router SLO report as JSON on shutdown")
    shrv.add_argument("--no-trace-requests", action="store_true",
                      help="disable per-request tracing (on by default)")
    shrv.add_argument("--trace-roots", type=int, default=512, metavar="N",
                      help="finished request traces kept in memory")
    shrv.add_argument("--trace-sample", type=float, default=1.0, metavar="P",
                      help="fraction of traces whose shard span summaries "
                           "ship back in replies (0..1, deterministic in "
                           "the trace id)")
    shrv.add_argument("--trace-file", metavar="FILE",
                      help="write retained cluster traces as JSON on "
                           "shutdown")
    shrv.add_argument("--scrape-interval", type=float, default=2.0,
                      metavar="S",
                      help="seconds between federation scrapes of shard "
                           "journals/metrics (0 disables)")
    shrv.add_argument("--slow-query-ms", type=float, default=100.0,
                      metavar="MS",
                      help="journal requests slower than MS as slow-query")
    shrv.add_argument("--journal-sample", type=float, default=0.0,
                      metavar="P",
                      help="also journal a P fraction of all requests")
    shrv.add_argument("--journal", metavar="FILE",
                      help="write the merged cluster journal (router + "
                           "every shard, provenance-tagged) as JSON lines "
                           "on shutdown")
    shrv.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                      help="default per-request latency budget")
    shrv.set_defaults(fn=_cmd_serve_sharded)

    remote = add_parser("query-remote", help="query a running serve process")
    remote.add_argument("--host", default="127.0.0.1")
    remote.add_argument("--port", type=int, required=True)
    remote.add_argument("--timeout", type=float, default=30.0)
    remote.add_argument("--op", choices=("exact", "knn"), default="knn")
    remote.add_argument("--strategy", default="target-node",
                        choices=("target-node", "one-partition",
                                 "multi-partitions"))
    remote.add_argument("--k", type=int, default=10)
    remote.add_argument("--pth", type=int, default=None)
    remote.add_argument("--no-bloom", action="store_true")
    remote.add_argument("--deadline-ms", type=float, default=None,
                        metavar="MS",
                        help="per-request latency budget (queue wait "
                             "included)")
    remote.add_argument("--query", help="query series .npy")
    remote.add_argument("--data", help="dataset .npz to take --row from")
    remote.add_argument("--row", type=int, help="row of --data to query")
    remote.add_argument("--stats", action="store_true",
                        help="print the server's SLO report instead")
    remote.add_argument("--ping", action="store_true",
                        help="liveness probe: exit 0 if the server answers")
    remote.add_argument("--trace", action="store_true",
                        help="print the request's span timeline "
                             "(server must have tracing enabled)")
    remote.add_argument("--journal", type=int, metavar="N", default=None,
                        help="print the server's newest N journal records "
                             "instead of querying")
    remote.set_defaults(fn=_cmd_query_remote)

    top = add_parser("top", help="live SLO/queue/cache view of a server")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, required=True)
    top.add_argument("--timeout", type=float, default=10.0)
    top.add_argument("--interval", type=float, default=2.0, metavar="S",
                     help="seconds between refreshes")
    top.add_argument("--iterations", type=int, default=None, metavar="N",
                     help="stop after N rows (default: until Ctrl-C)")
    top.add_argument("--no-waterfall", action="store_true",
                     help="skip the slowest-request timeline pane in the "
                          "cluster view")
    top.set_defaults(fn=_cmd_top)

    trc = add_parser("trace",
                     help="render a request's scatter/gather waterfall "
                          "from a running server")
    trc.add_argument("trace_id", nargs="?", default=None,
                     help="trace id (default: slowest recent request)")
    trc.add_argument("--host", default="127.0.0.1")
    trc.add_argument("--port", type=int, required=True)
    trc.add_argument("--timeout", type=float, default=10.0)
    trc.add_argument("-n", type=int, default=32, metavar="N",
                     help="recent traces to consider when no id is given")
    trc.add_argument("--width", type=int, default=56,
                     help="timeline bar width in characters")
    trc.set_defaults(fn=_cmd_trace)

    stats = add_parser("stats",
                       help="pretty-print a saved --trace or --perf file")
    stats.add_argument("trace_file",
                       help="trace JSON written by --trace, or a "
                            "repro.perf/v1 report written by --perf")
    stats.add_argument("--depth", type=int, default=None,
                       help="max span depth (traces) or kernel rows "
                            "(perf reports) to print")
    stats.set_defaults(fn=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    telemetry.log.configure(verbosity=args.verbose - args.quiet)
    if getattr(args, "faults", None):
        from .faults import install_plan

        try:
            install_plan(args.faults)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load fault plan {args.faults}: {exc}")
    # query-remote's --trace is a boolean (print the remote timeline);
    # only the batch commands' --trace FILE names a local output file.
    trace_path = getattr(args, "trace", None)
    if not isinstance(trace_path, str):
        trace_path = None
    metrics_path = getattr(args, "metrics", None)
    perf_path = getattr(args, "perf", None)
    if trace_path:
        telemetry.enable_tracing()
    if perf_path:
        telemetry.enable_kernel_counters()
    if metrics_path:
        # Fresh counters per invocation so the file describes this command
        # alone (library embedders accumulate across calls instead).
        telemetry.get_registry().reset()
    try:
        code = args.fn(args)
    except PartialResultError as exc:
        # exact / knn --strategy exact / range: a partition the exact
        # answer needs stayed unavailable (--faults).
        print(f"partial result: {exc}")
        code = 2
    finally:
        # Written even when the command fails (an exact-match miss exits
        # 1) — the trace of a failed run is the one worth keeping.
        try:
            if trace_path:
                telemetry.write_trace(telemetry.get_tracer(), trace_path)
                logger.info("wrote execution trace to %s", trace_path)
            if perf_path:
                telemetry.write_perf(perf_path)
                logger.info("wrote kernel perf report to %s", perf_path)
            if metrics_path:
                if perf_path:
                    # Kernel totals ride the Prometheus exposition too.
                    telemetry.publish_to_registry()
                telemetry.write_metrics(telemetry.get_registry(), metrics_path)
                logger.info("wrote metrics to %s", metrics_path)
        except OSError as exc:
            raise SystemExit(f"cannot write telemetry output: {exc}")
        finally:
            if trace_path:
                telemetry.disable_tracing()
            if perf_path:
                telemetry.disable_kernel_counters()
    return code


if __name__ == "__main__":
    sys.exit(main())
