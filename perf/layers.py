"""The traced run: an outside-in ledger of what each layer costs.

``--trace 1`` re-runs a workload's inputs **serially** (one client, a few
hundred fixed inputs, warm) through successive public entry points, each
one layer further out than the last — direct library call, in-process
service without and with its batch window, TCP server, router — so that
adjacent rungs subtract: a rung's *self time* is its p50 minus the p50 of
the rung below it on the same inputs.  Inputs are visited request by
request (every rung for input 1, then every rung for input 2, …), so the
rungs of one request sit next to each other in time and host drift hits
them alike.

Every call is wrapped in a span recorded by this file — ``name``,
``start``, ``end``, ``parent``, the request number — kept in memory and
written to ``perf/out/trace-<workload>.json`` at exit.  Nothing inside the
program is instrumented or switched on, except where a metric says so
(``telemetry.tracing.overhead_pct``).

A ledger returns the per-layer metrics its workload exercises; the layers
it does not touch are reported as 0 by the caller.
"""

from __future__ import annotations

import json
import time
from statistics import mean, median

import numpy as np

from driver import clock, percentile, run_closed, run_open
from system import OUT, cpu_seconds
from verify import K, exact_ok, knn_answer, knn_ok
from workloads import (
    IngestClient,
    Run,
    check_recovered,
    knn_stream,
    live_answers,
    point_client,
    probe_stream,
    recover,
    require_two_cores,
    start_cluster,
)

#: Fixed inputs per ledger.
N_LEDGER = 300
#: Latency limit of the open-loop rate search: p99 from due time.
SLO_P99_MS = 25.0
OPEN_RATES = (100, 200, 400, 800)
#: Connections (and sender threads) of the open loop.
OPEN_WORKERS = 16


class Rung:
    """One row of the ledger: wall and CPU of one entry point per input.

    ``recorded=False`` times the same call without a span: the twin a
    workload's top rung is compared with for ``driver.trace_overhead_pct``.
    """

    def __init__(self, run: Run, name: str, recorded: bool = True):
        self.run = run
        self.name = name
        self.recorded = recorded
        self.wall: list = []
        self.cpu: list = []

    def __call__(self, request: int, parent, fn, *args):
        cpu0 = time.process_time()
        if self.recorded:
            result, wall = self.run.spans.timed(self.name, request, parent, fn, *args)
        else:
            started = clock()
            result = fn(*args)
            wall = clock() - started
        self.cpu.append(time.process_time() - cpu0)
        self.wall.append(wall)
        return result

    @property
    def p50_ms(self) -> float:
        return percentile(self.wall, 50) * 1e3

    @property
    def p50_us(self) -> float:
        return percentile(self.wall, 50) * 1e6

    @property
    def cpu_us(self) -> float:
        """Mean driver CPU per call (the clock ticks too coarsely for a p50)."""
        return mean(self.cpu) * 1e6


def take(stream, n: int) -> list:
    return [stream() for _ in range(n)]


def timed_load(run: Run):
    """``load_index`` into the driver; returns ``(index, seconds)``."""
    started = clock()
    index = run.oracle_index()
    return index, clock() - started


def builder_metrics(run: Run, load_s: float) -> dict:
    """What the set-up every ledger shares says about the build layers."""
    built = run.built
    return {
        "core.builder.build_s": built["build_s"],
        "core.builder.series_per_s": run.inputs.n_series / built["build_s"],
        "core.builder.peak_rss_mb": built["maxrss_mb"],
        "core.persistence.save_s": built["save_s"],
        "core.persistence.load_s": load_s,
        "core.global_index.nbytes": built["global_nbytes"],
        "core.local_index.nbytes": built["local_nbytes"],
        "bloom.nbytes": built["bloom_nbytes"],
    }


def with_twin(i: int, recorded, plain):
    """Run a rung and its unrecorded twin, swapping who goes first on every
    other input so that neither always finds the caches warm; returns the
    rung's result."""
    if i % 2:
        plain()
    result = recorded()
    if i % 2 == 0:
        plain()
    return result


def trace_overhead_pct(rung: Rung, twin: Rung) -> float:
    """What this file's own span recording costs the workload's top rung."""
    return (rung.p50_ms - twin.p50_ms) / twin.p50_ms * 100.0


def write_trace(run: Run) -> None:
    origin = run.spans.spans[0][3] if run.spans.spans else 0.0
    (OUT / f"trace-{run.name}.json").write_text(
        json.dumps(run.spans.to_document(origin)) + "\n"
    )


# ---------------------------------------------------------------------------
# lib-mpa: the scan, stage by stage
# ---------------------------------------------------------------------------


def query_counts(index, queries) -> dict:
    """Exact work counts of multi-partitions 10-NN over the verification set."""
    from repro.core import knn_multi_partitions_access

    results = [knn_multi_partitions_access(index, q, k=K) for q in queries]
    candidates = sum(r.candidates_examined for r in results)
    visited = sum(r.nodes_visited for r in results)
    pruned = sum(r.nodes_pruned for r in results)
    n = len(results)
    return {
        "core.queries.partitions_per_query": sum(r.partitions_loaded for r in results) / n,
        "core.queries.candidates_per_query": candidates / n,
        "core.queries.candidates_per_result": candidates / sum(len(r.neighbors) for r in results),
        "core.queries.nodes_visited_per_query": visited / n,
        "core.queries.prune_ratio": pruned / (pruned + visited),
    }


def mpa_stages(run: Run, index, stages: dict, request: int, parent, query) -> int:
    """One multi-partitions query, replayed stage by stage through the
    public functions ``knn_multi_partitions_access`` is made of; returns
    the number of rows whose distance it computed."""
    from repro.cluster import SimulationLedger
    from repro.core.queries import query_signature, select_mpa_partitions
    from repro.tsdb import batch_euclidean, mindist_paa_to_words, paa_transform

    config, length = index.config, index.series_length

    def total(name, calls):
        """One span for a stage that is several calls per query."""
        return stages[name](request, parent, lambda: [call() for call in calls])

    stages["tsdb.paa.transform_us"](request, parent, paa_transform, query, config.word_length)
    signature, paa = stages["core.queries.signature_us"](
        request, parent, query_signature, index, query)
    stages["core.global_index.route_us"](request, parent, index.global_index.route, signature)
    siblings = index.global_index.sibling_partition_ids(signature)
    total("core.local_index.region_bound_us", [
        lambda p=pid: index.partitions[p].region_bound(paa, length) for pid in siblings
    ])
    home_pid, pids = stages["core.queries.select_us"](
        request, parent, select_mpa_partitions, index.global_index, signature,
        config.pth, lambda pid: index.partitions[pid].region_bound(paa, length),
    )
    partitions = total("core.builder.load_partition_us", [
        lambda p=pid: index.load_partition(p, ledger=SimulationLedger()) for pid in pids
    ])
    home = index.partitions[home_pid]

    def target_scan():
        node = home.target_node(signature, K)
        return node, home.entries_under(node)

    target, rows = stages["core.local_index.target_scan_us"](request, parent, target_scan)
    seed = np.sort(batch_euclidean(query, home.block.values[rows]))
    threshold = seed[K - 1] if len(seed) >= K else np.inf
    survivors = total("core.local_index.pruned_scan_us", [
        lambda p=p: p.pruned_entries(
            paa, threshold, length, skip=target if p is home else None)
        for p in partitions
    ])
    stages["tsdb.distance.mindist_us"](
        request, parent, mindist_paa_to_words, paa, home.block.symbols[:64],
        config.cardinality_bits, length,
    )
    total("tsdb.distance.euclid_ns_per_row", [
        lambda p=p, r=r: batch_euclidean(query, p.block.values[r])
        for p, r in zip([home, *partitions], [rows, *survivors])
    ])
    return len(rows) + sum(len(r) for r in survivors)


#: The stages that together are one multi-partitions query (the rest of
#: the stage rungs re-measure parts of these).
MPA_STAGES = (
    "core.queries.signature_us", "core.queries.select_us",
    "core.builder.load_partition_us", "core.local_index.target_scan_us",
    "core.local_index.pruned_scan_us", "tsdb.distance.euclid_ns_per_row",
)


def ledger_lib_mpa(run: Run) -> dict:
    from repro.core import (
        exact_match,
        knn_multi_partitions_access,
        knn_one_partition_access,
        knn_target_node_access,
    )

    run.build_index()
    index, load_s = timed_load(run)
    queries = take(knn_stream(run, 0, 1), N_LEDGER)
    probes = take(probe_stream(run, 0, 1), N_LEDGER)
    for query in queries:  # warm: node caches filled, routes memoised
        knn_multi_partitions_access(index, query, k=K)
    strategies = {"opa": knn_one_partition_access, "tna": knn_target_node_access}
    rungs = {name: Rung(run, f"core.queries.{name}") for name in ("mpa", "opa", "tna", "exact")}
    twin = Rung(run, "core.queries.mpa", recorded=False)
    stage_names = (
        "tsdb.paa.transform_us", "core.queries.signature_us",
        "core.global_index.route_us", "core.local_index.region_bound_us",
        "core.queries.select_us", "core.builder.load_partition_us",
        "core.local_index.target_scan_us", "core.local_index.pruned_scan_us",
        "tsdb.distance.mindist_us", "tsdb.distance.euclid_ns_per_row",
    )
    stages = {name: Rung(run, name) for name in stage_names}
    rows = 0
    for i, (query, (probe, expected)) in enumerate(zip(queries, probes)):
        root = run.spans.start("request", i)
        for name, fn in strategies.items():
            run.tally.check(knn_ok(rungs[name](i, root, fn, index, query, K)), name)
        answer = with_twin(
            i, lambda: rungs["mpa"](i, root, knn_multi_partitions_access, index, query, K),
            lambda: twin(i, root, knn_multi_partitions_access, index, query, K))
        run.tally.check(knn_ok(answer), "mpa")
        run.tally.check(
            exact_ok(rungs["exact"](i, root, exact_match, index, probe), expected),
            "exact",
        )
        rows += mpa_stages(run, index, stages, i, run.spans.start("stages", i, root), query)
        run.spans.end(root)
    metrics = builder_metrics(run, load_s)
    for name, rung in rungs.items():
        metrics[f"core.queries.{name}_ms"] = rung.p50_ms
        metrics[f"core.queries.{name}_cpu_us"] = rung.cpu_us
    for name, rung in stages.items():
        metrics[name] = rung.p50_us
    metrics["tsdb.distance.euclid_ns_per_row"] = (
        sum(stages["tsdb.distance.euclid_ns_per_row"].wall) / rows * 1e9
    )
    metrics["core.queries.stage_coverage"] = (
        sum(stages[name].p50_us for name in MPA_STAGES) / rungs["mpa"].p50_us
    )
    metrics.update(query_counts(index, run.verification_queries(point=False)))
    metrics["driver.trace_overhead_pct"] = trace_overhead_pct(rungs["mpa"], twin)
    metrics.update(construction_pieces(run, index))
    return metrics


# ---------------------------------------------------------------------------
# lib-mpa, continued: the construction pipeline, piece by piece
# ---------------------------------------------------------------------------


def timed(fn, *args) -> float:
    started = clock()
    fn(*args)
    return clock() - started


def construction_pieces(run: Run, index) -> dict:
    """The build pipeline, piece by piece, on a slice of the inputs."""
    import gc

    from repro.bloom import BloomFilter
    from repro.core import (
        TardisConfig,
        build_local_partition,
        build_tardis_index,
        collect_layer_statistics,
        convert_records,
    )
    from repro.tsdb import TimeSeriesDataset

    config = TardisConfig()
    metrics = {}

    sample = [(i, row) for i, row in enumerate(run.inputs.data[:5000])]
    started = clock()
    converted = convert_records(sample, config)
    metrics["core.builder.convert_us_per_series"] = (clock() - started) / len(sample) * 1e6
    frequencies: dict = {}
    for signature, _rid, _series in converted:
        frequencies[signature] = frequencies.get(signature, 0) + 1
    metrics["core.global_index.stats_s"] = timed(
        collect_layer_statistics, frequencies, config, run.inputs.n_series / len(sample))
    entries = [p.all_entries() for p in list(index.partitions.values())[:10]]
    metrics["core.local_index.build_partition_ms"] = median(
        timed(build_local_partition, pid, records, config)
        for pid, records in enumerate(entries)
    ) * 1e3
    signatures = [signature for signature, _rid, _series in converted]
    bloom = BloomFilter.with_capacity(len(signatures), config.bloom_fp_rate)
    started = clock()
    for signature in signatures:
        bloom.add(signature)
    metrics["bloom.add_us"] = (clock() - started) / len(signatures) * 1e6

    # A long-lived process that rebuilds pays more the second time, even
    # with the first index freed — why every timed build is a fresh
    # interpreter, and what a rebuilding server would see.
    del entries
    dataset = TimeSeriesDataset(run.inputs.data, name="RandomWalk")
    walls = []
    for _ in range(2):
        started = clock()
        rebuilt = build_tardis_index(dataset, config)
        walls.append(clock() - started)
        del rebuilt
        gc.collect()
    metrics["core.builder.rebuild_ratio"] = walls[1] / walls[0]
    return metrics


# ---------------------------------------------------------------------------
# serve-point: direct → service → batch window → wire
# ---------------------------------------------------------------------------


def serving_stats(stats: dict) -> dict:
    return {
        "serving.batcher.occupancy_mean": stats["batch_occupancy_mean"],
        "serving.batcher.partitions_per_query": stats["partitions_per_query"],
        "serving.admission.max_queue_depth": stats["max_queue_depth"],
        "serving.admission.shed_total": stats["requests_shed"] + stats["requests_deadline_shed"],
        "serving.result_cache.hit_rate": stats["result_cache_hit_rate"],
    }


def burst_qps(run: Run, child, seconds: float, burst: int) -> float:
    """Closed-loop throughput of the workload's own mix for ``seconds``.

    Burst ``b`` reads stream slots of its own, so no server sees a query
    twice; the two servers of a pair get the same ``b``.
    """
    connections = run.connect(child)
    clients = [
        point_client(run, connection, 2 * (burst + 1) + j, 64)
        for j, connection in enumerate(connections)
    ]
    closed = run_closed(
        clients, warmup_ops=50, window_s=seconds, n_windows=1, cpu_clock=clock)
    for connection in connections:
        connection.close()
    run.tally.add(closed.attempted, closed.failed, "closed-loop burst")
    return closed.throughput()


def open_loop(run: Run, child, metrics: dict) -> None:
    """Latency from due time at rising fixed rates, until one misses the
    limit; reports the highest rate that met it."""
    connections = run.connect(child, OPEN_WORKERS)
    for connection in connections:
        connection.ping()  # the server's handler threads exist before the clock starts
    duration = max(1.0, run.seconds / len(OPEN_RATES))
    stream = knn_stream(run, 63, 64)
    met = missed = None
    lateness = []
    for rate in OPEN_RATES:
        queries = take(stream, int(rate * duration) + 1)
        steps = [
            lambda i, c=c: knn_ok(c.knn(queries[i], k=K, strategy="target-node"))
            for c in connections
        ]
        result = run_open(steps, rate=rate, duration_s=duration, seed=run.inputs.seed)
        lateness.extend(result.lateness)
        if percentile(result.latencies, 99) * 1e3 > SLO_P99_MS or result.failed:
            missed = result  # overload is the point of the search, not a failure
            break
        run.tally.add(result.sent, 0, f"open loop at {rate}/s")
        met = result
    for connection in connections:
        connection.close()
    shown = met or missed
    metrics["serving.slo_rate_qps"] = float(met.rate) if met else 0.0
    metrics["serving.open.p50_ms"] = percentile(shown.latencies, 50) * 1e3
    metrics["serving.open.p99_ms"] = percentile(shown.latencies, 99) * 1e3
    metrics["driver.lateness_p99_ms"] = percentile(lateness, 99) * 1e3


def ledger_serve_point(run: Run) -> dict:
    from repro.core import exact_match, knn_target_node_access
    from repro.serving import QueryRequest, QueryService

    run.build_index()
    index, load_s = timed_load(run)
    child = run.start("serve", "--index", str(run.index_dir))
    traced = run.start("serve", "--index", str(run.index_dir), "--tracing")
    connection = run.connect(child, 1)[0]
    n = 2 * N_LEDGER // 3
    probes = take(probe_stream(run, 0, 1), n)
    queries = take(knn_stream(run, 0, 1), n)
    mixed = [item for pair in zip(probes, queries) for item in pair]
    items, unseen = mixed[:n], mixed[n:]

    def request_of(item) -> QueryRequest:
        if isinstance(item, tuple):
            return QueryRequest(item[0], op="exact-match")
        return QueryRequest(item, op="knn", strategy="target-node", k=K)

    def direct(item):
        if isinstance(item, tuple):
            return exact_match(index, item[0])
        return knn_target_node_access(index, item, K)

    def over_tcp(item):
        if isinstance(item, tuple):
            return connection.exact_match(item[0])
        return connection.knn(item, k=K, strategy="target-node")

    def correct(item, result) -> bool:
        return exact_ok(result, item[1]) if isinstance(item, tuple) else knn_ok(result)

    for item in items:
        direct(item)
    by_kind = {"exact": Rung(run, "core.queries.exact"), "tna": Rung(run, "core.queries.tna")}
    rungs = {name: Rung(run, name) for name in (
        "serving.service/no-window", "serving.service/default", "serving.server/tcp")}
    twin = Rung(run, "serving.server/tcp", recorded=False)
    direct_wall = []
    server_cpu0 = cpu_seconds(child.pids)
    with QueryService(index, max_delay_ms=0) as no_window, QueryService(index) as default:
        for i, item in enumerate(items):
            root = run.spans.start("request", i)
            kind = by_kind["exact" if isinstance(item, tuple) else "tna"]
            run.tally.check(correct(item, kind(i, root, direct, item)), "direct")
            direct_wall.append(kind.wall[-1])
            for rung, fn in (
                (rungs["serving.service/no-window"],
                 lambda it: no_window.submit(request_of(it)).result()),
                (rungs["serving.service/default"],
                 lambda it: default.submit(request_of(it)).result()),
            ):
                run.tally.check(correct(item, rung(i, root, fn, item)), rung.name)
            tcp = rungs["serving.server/tcp"]
            reply = with_twin(
                i, lambda: tcp(i, root, over_tcp, item),
                # A fresh input: the server's result cache remembers this one.
                lambda: twin(i, root, over_tcp, unseen[i]))
            run.tally.check(correct(item, reply), tcp.name)
            run.spans.end(root)
    server_cpu = cpu_seconds(child.pids) - server_cpu0
    no_window_r, default_r, tcp_r = rungs.values()
    metrics = builder_metrics(run, load_s)
    for name, rung in by_kind.items():
        metrics[f"core.queries.{name}_ms"] = rung.p50_ms
        metrics[f"core.queries.{name}_cpu_us"] = rung.cpu_us
    metrics["serving.service.self_ms"] = no_window_r.p50_ms - percentile(direct_wall, 50) * 1e3
    metrics["serving.batcher.window_ms"] = default_r.p50_ms - no_window_r.p50_ms
    metrics["serving.server.wire_ms"] = tcp_r.p50_ms - default_r.p50_ms
    # The server answered every input twice: the rung's and its twin's.
    metrics["serving.server.wire_cpu_us"] = (
        tcp_r.cpu_us + server_cpu / (2 * len(items)) * 1e6 - default_r.cpu_us
    )
    metrics["driver.trace_overhead_pct"] = trace_overhead_pct(tcp_r, twin)
    connection.close()

    # Closed-loop bursts, tracing off / on in the server, interleaved.
    burst_s = max(0.5, run.seconds / 12)
    pairs = [(burst_qps(run, child, burst_s, b), burst_qps(run, traced, burst_s, b))
             for b in range(3)]
    off, on = (median(side) for side in zip(*pairs))
    metrics["telemetry.tracing.overhead_pct"] = (1.0 - on / off) * 100.0
    traced.stop()
    stats_connection = run.connect(child, 1)[0]
    metrics.update(serving_stats(stats_connection.stats()))
    stats_connection.close()
    open_loop(run, child, metrics)
    return metrics


# ---------------------------------------------------------------------------
# shard-mpa: direct → one shard → router → two shards
# ---------------------------------------------------------------------------


def ledger_shard_mpa(run: Run) -> dict:
    from repro.core import knn_multi_partitions_access
    from repro.serving import QueryRequest, ServingClient
    from repro.sharding import RouterIndex, RouterService, ShardPlan

    require_two_cores(run)
    run.build_index()
    index, load_s = timed_load(run)
    queries = take(knn_stream(run, 0, 1), N_LEDGER // 2)
    for query in queries:
        knn_multi_partitions_access(index, query, k=K)
    names = ("core.queries.mpa", "sharding.shard/direct", "sharding.router/1-shard",
             "sharding.router/2-shards-tcp")
    direct_r, shard_r, router_r, tcp_r = (Rung(run, name) for name in names)
    twin = Rung(run, names[0], recorded=False)

    # One shard holds every partition, so all three rungs do the same scans.
    # ``ServingClient.knn`` straight at the shard goes through the shard's
    # own admission queue and batch window; the router's shard calls do not
    # (they run in the shard's connection handler), so the router's self
    # time is taken against the direct library call, not against that rung.
    single = start_cluster(run, 1)
    shard = ServingClient(*single.ready["shard_addresses"][0])
    router = RouterService(
        RouterIndex.from_index(index), ShardPlan.from_dict(single.ready["plan"]),
        [tuple(a) for a in single.ready["shard_addresses"]],
    )
    roots = []
    with router:
        for i, query in enumerate(queries):
            roots.append(run.spans.start("request", i))
            want = with_twin(
                i, lambda: direct_r(i, roots[i], knn_multi_partitions_access, index, query, K),
                lambda: twin(i, roots[i], knn_multi_partitions_access, index, query, K))
            for rung, fn in (
                (shard_r, lambda q: shard.knn(q, k=K, strategy="multi-partitions")),
                (router_r, lambda q: router.submit(QueryRequest(
                    q, op="knn", strategy="multi-partitions", k=K)).result()),
            ):
                got = rung(i, roots[i], fn, query)
                run.tally.same_answers([knn_answer(got)], [knn_answer(want)], rung.name)
            run.spans.end(roots[i])
    shard.close()
    single.stop()

    cluster = start_cluster(run, 2)
    connection = run.connect(cluster, 1)[0]
    cpu0 = [cpu_seconds([pid]) for pid in cluster.pids]
    for i, query in enumerate(queries):
        root = run.spans.start("request/2-shards", i)
        answer = tcp_r(i, root, connection.knn, query, K, "multi-partitions")
        run.tally.check(knn_ok(answer), tcp_r.name)
        run.spans.end(root)
    cpu = [cpu_seconds([pid]) - before for pid, before in zip(cluster.pids, cpu0)]
    shards = connection.stats()["shards"]
    connection.close()
    calls = [s["requests"] for s in shards]
    metrics = builder_metrics(run, load_s)
    metrics.update({
        "core.queries.mpa_ms": direct_r.p50_ms,
        "core.queries.mpa_cpu_us": direct_r.cpu_us,
        "sharding.shard.direct_ms": shard_r.p50_ms,
        "sharding.router.self_ms": router_r.p50_ms - direct_r.p50_ms,
        "sharding.cluster.start_s": cluster.ready["cluster_start_s"],
        "sharding.router.cpu_ms_per_op": cpu[0] / len(queries) * 1e3,
        "sharding.shard.cpu_ms_per_op": sum(cpu[1:]) / len(queries) * 1e3,
        "sharding.router.shard_calls_per_query": sum(calls) / len(queries),
        "sharding.router.shard_balance": min(calls) / max(calls),
        "sharding.router.failures_total": sum(s["failures"] for s in shards),
        "driver.trace_overhead_pct": trace_overhead_pct(direct_r, twin),
    })
    metrics.update(query_counts(index, run.verification_queries(point=False)))
    return metrics


# ---------------------------------------------------------------------------
# ingest-mixed: acks, the log, the rebalancer, the append kernels
# ---------------------------------------------------------------------------


def append_us(records: list, word_length: int, n_rows: int, n_appends: int = 100) -> float:
    """µs per ``ColumnarBlock.append`` onto a block of ``n_rows`` rows."""
    from repro.core.columnar import ColumnarBlock

    base = [records[i % len(records)] for i in range(n_rows)]
    block = ColumnarBlock.from_records(base, word_length)
    signature, _rid, series = records[0]
    symbols = block.symbols[0]
    started = clock()
    for i in range(n_appends):
        block.append(signature, n_rows + i, series, symbols)
    return (clock() - started) / n_appends * 1e6


def ledger_ingest_mixed(run: Run) -> dict:
    run.build_index()
    wal = run.dir / "ingest.wal"
    child = run.start("serve", "--index", str(run.index_dir), "--wal", str(wal))
    connection = run.connect(child, 1)[0]
    client = IngestClient(run, connection, 0, 1)
    cycles = Rung(run, "serving.server/write+read")
    started = clock()
    for i in range(2 * N_LEDGER // 3):
        root = run.spans.start("request", i)
        run.tally.check(cycles(i, root, client.call, client.fetch()), "write+read cycle")
        acked_at = client.ends[-1] - client.read_s[-1]
        run.spans.add("write_batch", i, root, acked_at - client.write_s[-1], acked_at)
        run.spans.add("read", i, root, acked_at, client.ends[-1])
        run.spans.end(root)
    elapsed = clock() - started
    live = live_answers(run, [connection])
    stats = connection.stats()
    child.kill()
    connection.close()

    appended = sum(len(ids) for ids, _batch in client.acked)
    metrics = {
        "ingest.write_records_per_s": appended / elapsed,
        "ingest.write_ack_p50_ms": percentile(client.write_s, 50) * 1e3,
        "ingest.write_ack_p95_ms": percentile(client.write_s, 95) * 1e3,
        "ingest.read_p50_ms": percentile(client.read_s, 50) * 1e3,
        "ingest.read_p95_ms": percentile(client.read_s, 95) * 1e3,
        "core.wal.appends_logged": stats["ingest"]["wal"]["appends_logged"],
        "core.wal.bytes_per_data_byte":
            wal.stat().st_size / (appended * run.inputs.length * 8),
        **serving_stats(stats),
    }
    rebalance = stats["rebalance"]
    total = rebalance["cycles_total"]
    metrics.update({
        "core.rebalance.cycles_total": total,
        "core.rebalance.cycles_aborted": rebalance["cycles_aborted"],
        "core.rebalance.commit_ratio":
            (total - rebalance["cycles_aborted"]) / total if total else 0.0,
        "core.rebalance.partitions_split": rebalance["partitions_split"],
        "core.rebalance.max_pause_ms": rebalance["max_pause_s"] * 1e3,
    })

    index, recovery_s, replay_s = recover(run, wal)
    run.phase("recover")
    metrics["ingest.recovery_s"] = recovery_s
    metrics["core.wal.replay_records_per_s"] = appended / replay_s
    check_recovered(run, index, [client], live)
    metrics["core.rebalance.max_fill_ratio"] = (
        max(p.n_records for p in index.partitions.values()) / index.config.g_max_size
    )
    metrics.update(builder_metrics(run, child.ready["load_s"]))

    records = next(iter(index.partitions.values())).all_entries()
    word_length = index.config.word_length
    metrics["core.columnar.append_us_at_1k"] = append_us(records, word_length, 1_000)
    metrics["core.columnar.append_us_at_16k"] = append_us(records, word_length, 16_000)
    new_series = run.inputs.write_chunk(10_000)[:200]
    started = clock()
    for series in new_series:
        index.insert_series(series)
    metrics["core.builder.insert_series_us"] = (clock() - started) / len(new_series) * 1e6
    return metrics


LEDGERS = {
    "lib-mpa": ledger_lib_mpa,
    "serve-point": ledger_serve_point,
    "shard-mpa": ledger_shard_mpa,
    "ingest-mixed": ledger_ingest_mixed,
}
