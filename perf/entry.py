"""Entry script of every child process the benchmark starts.

The system under test always runs in child processes started from here
through the program's public Python API, with its shipped defaults, so
that its CPU and memory are separable from the driver's.  Each command
prints one JSON line when it is ready (or done) and — for the servers —
then blocks on stdin until the driver writes a line or goes away.

``build``  fresh-interpreter ``build_tardis_index`` + ``save_index``
``serve``  ``load_index`` → ``TardisServer(QueryService(index))``
``shard``  ``load_index`` → processes-mode ``ShardCluster`` → router server

The ``__main__`` guard matters: processes-mode shards are ``spawn``-ed and
re-import this file.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def _say(doc: dict) -> None:
    print(json.dumps(doc), flush=True)


def cmd_build(args) -> None:
    import numpy as np

    from repro.core import TardisConfig, build_tardis_index, save_index
    from repro.tsdb import TimeSeriesDataset

    dataset = TimeSeriesDataset(np.load(args.data), name="RandomWalk")
    t0 = perf_counter()
    index = build_tardis_index(dataset, TardisConfig())
    t1 = perf_counter()
    save_index(index, args.out)
    t2 = perf_counter()
    _say({
        "build_s": t1 - t0,
        "save_s": t2 - t1,
        "n_records": index.n_records,
        "n_partitions": len(index.partitions),
        "global_nbytes": index.global_index_nbytes(),
        "local_nbytes": index.local_index_nbytes(),
        "bloom_nbytes": index.bloom_nbytes(),
    })


def cmd_serve(args) -> None:
    from repro.core import load_index
    from repro.serving import QueryService, TardisServer

    if args.tracing:
        from repro.telemetry import enable_tracing

        enable_tracing()
    t0 = perf_counter()
    index = load_index(args.index)
    t1 = perf_counter()
    options = {"wal": args.wal, "rebalance": True} if args.wal else {}
    server = TardisServer(QueryService(index, **options)).start()
    t2 = perf_counter()
    _say({
        "address": list(server.address),
        "pids": [os.getpid()],
        "load_s": t1 - t0,
        "start_s": t2 - t1,
    })
    sys.stdin.readline()
    server.close()


def cmd_shard(args) -> None:
    from repro.core import load_index
    from repro.serving import TardisServer
    from repro.sharding import RouterIndex, RouterService, ShardCluster, plan_shards

    t0 = perf_counter()
    index = load_index(args.index)
    t1 = perf_counter()
    plan = plan_shards(
        {pid: p.n_records for pid, p in index.partitions.items()}, args.shards
    )
    cluster = ShardCluster(plan, mode="processes", index_dir=args.index)
    # Shards inherit this process's cores while they load their subsets in
    # parallel; once up, each shard — and this router — owns one core.
    own_cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(args.cores))
    cluster.start()
    t2 = perf_counter()
    shards = sorted(multiprocessing.active_children(), key=lambda p: p.name)
    for i, process in enumerate(shards):
        os.sched_setaffinity(process.pid, {args.cores[i % len(args.cores)]})
    os.sched_setaffinity(0, own_cores)
    router = RouterService(RouterIndex.from_index(index), plan, cluster.addresses)
    server = TardisServer(router).start()
    t3 = perf_counter()
    _say({
        "address": list(server.address),
        "pids": [os.getpid()] + [p.pid for p in shards],
        "shard_addresses": [list(a) for a in cluster.addresses],
        "plan": plan.to_dict(),
        "load_s": t1 - t0,
        "cluster_start_s": t2 - t1,
        "start_s": t3 - t2,
    })
    try:
        sys.stdin.readline()
        server.close()
    finally:
        cluster.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    build = commands.add_parser("build")
    build.add_argument("--data", required=True)
    build.add_argument("--out", required=True)
    build.set_defaults(fn=cmd_build)
    serve = commands.add_parser("serve")
    serve.add_argument("--index", required=True)
    serve.add_argument("--wal")
    serve.add_argument("--tracing", action="store_true")
    serve.set_defaults(fn=cmd_serve)
    shard = commands.add_parser("shard")
    shard.add_argument("--index", required=True)
    shard.add_argument("--shards", type=int, required=True)
    shard.add_argument(
        "--cores", required=True,
        type=lambda text: [int(c) for c in text.split(",")],
    )
    shard.set_defaults(fn=cmd_shard)
    args = parser.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
