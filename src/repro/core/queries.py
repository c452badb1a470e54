"""TARDIS query processing (paper §V).

Implements the Exact-Match algorithm (with and without the Bloom-filter
short-circuit) and the three kNN-Approximate strategies:

* **Target Node Access (TNA)** — route to the home partition, descend
  Tardis-L to the *target node* (lowest node with ≥ k entries), answer from
  its entries.  One partition load, minimal scan.
* **One Partition Access (OPA)** — TNA's k-th distance becomes a pruning
  threshold; the rest of the home partition's Tardis-L is scanned with the
  MINDIST lower bound to widen the candidate pool.
* **Multi-Partitions Access (MPA, Alg. 1)** — additionally loads up to
  ``pth`` sibling partitions (from the Tardis-G parent's id list) and
  prunes them all in parallel with the same threshold.

Each strategy has one body (:func:`_exact_match`, :func:`_target_node_knn`,
:func:`_pruned_knn`) that every tier runs — the library calls below,
:mod:`repro.core.batch` and the serving batcher.  A tier that already
converted and routed its queries hands the conversion in; the simulated
cost ledger is an optional observer (:func:`_stage`): library calls and
the batch tier charge one so average query times reproduce the Fig. 14-16
latency shapes, served reads charge none.
"""

from __future__ import annotations

import logging
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from ..cluster import SimulationLedger
from ..cluster.costmodel import timed_stage
from ..faults.errors import PartialResultError, PartitionUnavailableError
from ..telemetry.metrics import get_registry
from ..telemetry.spans import get_tracer
from ..tsdb.distance import GapTable, as_gap_table, batch_euclidean
from ..tsdb.paa import paa_transform
from .builder import TardisIndex
from .isaxt import signature_of_paa
from .local_index import LocalPartition, ScanStats
from .sigtree import SigTreeNode

__all__ = [
    "Neighbor",
    "KnnResult",
    "ExactMatchResult",
    "query_signature",
    "exact_match",
    "knn_target_node_access",
    "knn_one_partition_access",
    "knn_multi_partitions_access",
    "select_mpa_partitions",
    "sibling_bound_lookup",
    "PartitionLoad",
    "run_point_group",
    "PartitionScan",
    "scan_partitions",
    "merge_top_k",
    "KNN_STRATEGIES",
]


@dataclass(frozen=True)
class Neighbor:
    """One answer: distance to the query plus the record id."""

    distance: float
    record_id: int


@dataclass
class KnnResult:
    """kNN answer set plus execution accounting."""

    neighbors: list[Neighbor]
    partitions_loaded: int = 0
    #: Rows that passed the node filter (the target node's included).
    candidates_examined: int = 0
    #: Rows whose true distance was computed: the candidates that also
    #: passed the row bound (all of them under Target Node Access).
    rows_refined: int = 0
    #: Which strategy produced this result (drives answer certification).
    strategy: str = ""
    #: Ids of the partitions actually loaded (used by answer certification).
    partition_ids_loaded: list[int] = field(default_factory=list)
    #: sigTree nodes touched during descent/scan across all partitions.
    nodes_visited: int = 0
    #: Subtrees skipped by the MINDIST lower bound.
    nodes_pruned: int = 0
    #: True when partitions were unavailable after retries and the answer
    #: is a (guaranteed) subset of the no-fault baseline.
    degraded: bool = False
    #: Partition ids that could not be loaded (empty unless degraded).
    missing_partitions: list[int] = field(default_factory=list)
    ledger: SimulationLedger = field(default_factory=SimulationLedger)

    @property
    def record_ids(self) -> list[int]:
        return [n.record_id for n in self.neighbors]

    @property
    def distances(self) -> list[float]:
        return [n.distance for n in self.neighbors]

    @property
    def simulated_seconds(self) -> float:
        return self.ledger.clock_s


@dataclass
class ExactMatchResult:
    """Exact-match answer plus execution accounting."""

    record_ids: list[int]
    bloom_rejected: bool = False
    partitions_loaded: int = 0
    #: Ids of the partitions actually loaded (empty on Bloom rejection).
    partition_ids_loaded: list[int] = field(default_factory=list)
    #: Tardis-L nodes on the descent path of the leaf lookup.
    nodes_visited: int = 0
    ledger: SimulationLedger = field(default_factory=SimulationLedger)

    @property
    def found(self) -> bool:
        return bool(self.record_ids)

    @property
    def simulated_seconds(self) -> float:
        return self.ledger.clock_s


logger = logging.getLogger(__name__)


def query_signature(index: TardisIndex, query: np.ndarray) -> tuple[str, np.ndarray]:
    """Convert a query series to ``(isaxt(b) signature, PAA word)``."""
    config = index.config
    paa = paa_transform(np.asarray(query, dtype=np.float64), config.word_length)
    return signature_of_paa(paa, config.cardinality_bits), paa


#: (result field, counter, help) of the per-query accounting counters.
_QUERY_COUNTERS = (
    ("candidates_examined", "query_candidates_examined_total",
     "Candidate series that passed the node filter"),
    ("rows_refined", "query_rows_refined_total",
     "Candidate series ranked by true distance"),
    ("nodes_visited", "query_nodes_visited_total",
     "sigTree nodes touched by queries"),
    ("nodes_pruned", "query_mindist_prunes_total",
     "Subtrees/partitions skipped via the MINDIST lower bound"),
)


def _record_query_metrics(result, ledger: SimulationLedger | None) -> None:
    """Fold one answered query's accounting into the metrics registry.

    Once per query on every tier; the simulated latency is observed only
    where a ledger simulated one.
    """
    registry = get_registry()
    registry.counter(
        "queries_total", "Queries executed across all strategies"
    ).inc()
    for attr, name, help_text in _QUERY_COUNTERS:
        amount = getattr(result, attr, 0)
        if amount:
            registry.counter(name, help_text).inc(amount)
    if ledger is not None:
        registry.histogram(
            "query_simulated_seconds", "Simulated end-to-end query latency"
        ).observe(ledger.clock_s)


def _annotate_knn_span(
    span, result: "KnnResult", ledger: SimulationLedger | None
) -> None:
    """Copy a kNN result's accounting onto its root trace span; the
    simulated latency only where a ledger simulated one."""
    span.set("partitions_loaded", result.partitions_loaded)
    span.set("candidates_examined", result.candidates_examined)
    span.set("rows_refined", result.rows_refined)
    span.set("nodes_visited", result.nodes_visited)
    span.set("nodes_pruned", result.nodes_pruned)
    if ledger is not None:
        span.set("simulated_s", ledger.clock_s)
    if result.degraded:
        span.set("degraded", True)
        span.set("missing_partitions", list(result.missing_partitions))


def _count_degraded() -> None:
    get_registry().counter(
        "query_degraded_total",
        "kNN queries answered degraded (partitions unavailable)",
    ).inc()


def _stage(ledger: SimulationLedger | None, label: str):
    """A ledger-charged (and traced) stage, or nothing without a ledger."""
    return nullcontext() if ledger is None else timed_stage(ledger, label)


@dataclass
class PartitionLoad:
    """The home-partition load of one point query, or of a whole group.

    The first call loads the partition and every later one returns it,
    so a group of co-routed queries pays one ``load_partition``; a load
    that exhausted its retries is not attempted again — the rest of the
    group sees the same error.  ``ledger`` follows the :func:`_stage` rule.
    """

    index: TardisIndex
    partition_id: int
    ledger: SimulationLedger | None = None
    #: None until a query needed the partition; then it, or the error.
    outcome: LocalPartition | PartitionUnavailableError | None = None

    def __call__(self) -> LocalPartition:
        if self.outcome is None:
            try:
                self.outcome = self.index.load_partition(
                    self.partition_id, ledger=self.ledger
                )
            except PartitionUnavailableError as exc:
                self.outcome = exc
        if isinstance(self.outcome, PartitionUnavailableError):
            raise self.outcome
        return self.outcome


def _route_home(
    index: TardisIndex, query: np.ndarray, ledger: SimulationLedger | None
) -> tuple[str, PartitionLoad]:
    """One query's ``home``: its signature and its home-partition load."""
    with _stage(ledger, "query/route"):
        signature, _paa = query_signature(index, query)
        partition_id = index.global_index.route(signature)
    return signature, PartitionLoad(index, partition_id, ledger)


def run_point_group(load: PartitionLoad, body, queries, signatures) -> list:
    """Answer co-routed point queries off one shared partition load.

    ``body(query, home=)`` is :func:`_exact_match` or
    :func:`_target_node_knn` with its index and plan bound.  Results
    align with ``queries``; an exact match whose partition would not
    load holds its :class:`PartialResultError` in its slot, so
    Bloom-rejected siblings keep their answers.
    """
    results: list = []
    for query, signature in zip(queries, signatures):
        try:
            results.append(body(query, home=(signature, load)))
        except PartialResultError as exc:
            results.append(exc)
    return results


# ---------------------------------------------------------------------------
# Exact match (paper §V-A)
# ---------------------------------------------------------------------------


def exact_match(
    index: TardisIndex,
    query: np.ndarray,
    use_bloom: bool = True,
) -> ExactMatchResult:
    """Find all records identical to ``query`` (Definition 3).

    Steps: signature conversion → Tardis-G routing → Bloom-filter test
    (skipped by the NoBF variant) → partition load → Tardis-L leaf lookup.
    A negative Bloom test terminates with zero results *without* the
    partition load — the source of the Fig. 14 speedup on absent queries.
    """
    return _exact_match(index, query, use_bloom, ledger=SimulationLedger())


def _exact_match(
    index: TardisIndex,
    query: np.ndarray,
    use_bloom: bool,
    ledger: SimulationLedger | None = None,
    home: tuple[str, PartitionLoad] | None = None,
) -> ExactMatchResult:
    """The exact-match body: Bloom test → load → one Tardis-L descent.

    ``home`` comes from a tier that already converted and routed the
    query (:func:`_route_home` otherwise).  A lost home partition raises
    :class:`PartialResultError` — it may hold the only match.
    """
    result = ExactMatchResult(record_ids=[])
    if ledger is not None:
        result.ledger = ledger
    registry = get_registry()
    with get_tracer().span(
        "query/exact-match", use_bloom=use_bloom
    ) as query_span:
        signature, load = home or _route_home(index, query, ledger)
        partition_id = load.partition_id
        if use_bloom:
            # In-memory, ahead of the load it may save.
            with _stage(ledger, "query/bloom test"):
                positive = index.partitions[partition_id].might_contain(
                    signature
                )
            if positive:
                registry.counter(
                    "query_bloom_positives_total",
                    "Bloom tests that passed (partition load required)",
                ).inc()
            else:
                registry.counter(
                    "query_bloom_negatives_total",
                    "Bloom tests that short-circuited an absent query",
                ).inc()
                result.bloom_rejected = True
                query_span.set("bloom_rejected", True)
        if not result.bloom_rejected:
            try:
                partition = load()
            except PartitionUnavailableError as exc:
                raise PartialResultError(
                    [partition_id], detail="exact-match home partition"
                ) from exc
            result.partitions_loaded = 1
            result.partition_ids_loaded = [partition_id]
            with _stage(ledger, "query/local search"):
                leaf = partition.tree.descend(signature)
                result.nodes_visited = leaf.layer + 1
                result.record_ids = partition.exact_lookup(
                    signature, np.asarray(query), leaf=leaf
                )
            query_span.set("partition_id", partition_id)
            query_span.set("nodes_visited", result.nodes_visited)
        query_span.set("found", result.found)
    _record_query_metrics(result, ledger)
    logger.debug(
        "exact-match: partition %d, found=%s", partition_id, result.found
    )
    return result


# ---------------------------------------------------------------------------
# kNN approximate (paper §V-B)
# ---------------------------------------------------------------------------


def _top_k(
    query: np.ndarray, partition: LocalPartition, rows: np.ndarray, k: int
) -> list[Neighbor]:
    """k nearest block rows to the query by true Euclidean distance.

    One vectorized distance pass over the columnar value matrix; ties in
    distance break by ascending record id so every strategy (and every
    executor backend) returns the identical neighbor list.
    """
    if len(rows) == 0:
        return []
    block = partition.block
    distances = batch_euclidean(
        np.asarray(query, dtype=np.float64), block.values[rows]
    )
    rids = block.record_ids[rows]
    order = np.lexsort((rids, distances))[:k]
    return [
        Neighbor(d, r)
        for d, r in zip(distances[order].tolist(), rids[order].tolist())
    ]


def _target_node_top_k(
    partition: LocalPartition, signature: str, query: np.ndarray, k: int,
    stats: ScanStats,
) -> tuple[SigTreeNode, list[Neighbor], int]:
    """Rank the home target node's entries: ``(node, top-k, candidates)``.

    Target Node Access's answer and the threshold seed of the pruned
    strategies (Alg. 1 lines 10-14) are this one step.
    """
    target = partition.target_node(signature, k)
    rows = partition.entries_under(target, stats=stats)
    return target, _top_k(query, partition, rows, k), len(rows)


def _require_clustered(index: TardisIndex) -> None:
    if not index.clustered:
        raise RuntimeError(
            "TARDIS kNN strategies refine with raw series and need a "
            "clustered index (build with clustered=True)"
        )


def knn_target_node_access(
    index: TardisIndex, query: np.ndarray, k: int
) -> KnnResult:
    """Target Node Access: answer from the lowest ≥ k-entry node."""
    return _target_node_knn(index, query, k, ledger=SimulationLedger())


def _target_node_knn(
    index: TardisIndex,
    query: np.ndarray,
    k: int,
    ledger: SimulationLedger | None = None,
    home: tuple[str, PartitionLoad] | None = None,
) -> KnnResult:
    """The Target Node Access body; ``home`` as for :func:`_exact_match`.

    A lost home partition degrades to the empty (trivially correct)
    subset rather than failing the query.
    """
    _require_clustered(index)
    result = KnnResult(neighbors=[], strategy="target-node")
    if ledger is not None:
        result.ledger = ledger
    with get_tracer().span("query/knn", strategy="target-node", k=k) as span:
        signature, load = home or _route_home(index, query, ledger)
        try:
            partition = load()
        except PartitionUnavailableError:
            result.degraded = True
            result.missing_partitions = [load.partition_id]
            _count_degraded()
        else:
            result.partitions_loaded = 1
            result.partition_ids_loaded = [load.partition_id]
            with _stage(ledger, "query/local search"):
                scan = ScanStats()
                target, result.neighbors, result.candidates_examined = (
                    _target_node_top_k(partition, signature, query, k, scan)
                )
                result.rows_refined = result.candidates_examined
                result.nodes_visited = (target.layer + 1) + scan.visited
        _annotate_knn_span(span, result, ledger)
    _record_query_metrics(result, ledger)
    return result


def select_mpa_partitions(global_index, signature, pth, bound_of):
    """Candidate partitions for one Multi-Partitions Access query.

    Starts from the routed node's sibling id list in Tardis-G (Alg. 1
    line 4) plus the home partition.  When the list exceeds ``pth``, the
    cap keeps the home partition plus the ``pth - 1`` other candidates
    with the smallest MINDIST lower bound — ``bound_of(pid)``, computed
    from the partition's region synopsis — ties broken by partition id.
    Deterministic, so a sharded router holding only Tardis-G plus the
    per-partition synopses selects the same fan-out as single-process
    serving (the bit-equivalence contract of ``repro.sharding``).
    """
    home_pid = global_index.route(signature)
    pid_list = global_index.sibling_partition_ids(signature)
    if home_pid not in pid_list:
        pid_list.append(home_pid)
    if len(pid_list) > pth:
        others = sorted(
            (pid for pid in pid_list if pid != home_pid),
            key=lambda pid: (bound_of(pid), pid),
        )
        pid_list = [home_pid] + others[: pth - 1]
    return home_pid, pid_list


def sibling_bound_lookup(index, signature, query_paa):
    """The ``bound_of`` both tiers hand :func:`select_mpa_partitions`.

    ``index`` is whatever holds Tardis-G and the region synopses (a
    :class:`TardisIndex` or the router's ``RouterIndex``).  The first
    lookup prices the query's whole sibling list in one
    ``index.region_bounds`` pass; a list within ``pth`` is never looked
    up, so it is never priced.
    """
    bounds: dict = {}

    def bound_of(pid):
        if not bounds:
            bounds.update(index.region_bounds(
                query_paa,
                index.global_index.sibling_partition_ids(signature),
            ))
        return bounds[pid]

    return bound_of


@dataclass
class PartitionScan:
    """What :func:`scan_partitions` found in one set of partitions."""

    #: Partition ids that loaded, in request order; the rest are missing.
    loaded: list[int]
    missing: list[int]
    #: The pruning threshold used (computed here when this scan seeded).
    threshold: float
    #: One top-k list per scanned partition (plus the seed's, first).
    tops: list[list[Neighbor]] = field(default_factory=list)
    #: Rows that passed the node filter / of those, the rows ranked by
    #: true distance (the seed's rows count in both).
    candidates: int = 0
    refined: int = 0
    #: sigTree nodes visited / MINDIST-pruned across all the scans.
    stats: ScanStats = field(default_factory=ScanStats)
    #: Layer of the home target node; None unless this scan seeded.
    target_layer: int | None = None
    #: The seed partition itself would not load: nothing was scanned.
    home_lost: bool = False


def scan_partitions(
    index: TardisIndex,
    query: np.ndarray,
    signature: str,
    paa: np.ndarray,
    k: int,
    partition_ids,
    home_pid: int | None = None,
    threshold: float = np.inf,
    ledger: SimulationLedger | None = None,
) -> PartitionScan:
    """Load, threshold, prune and rank: Alg. 1 lines 5-16 for one host.

    Every partition in ``partition_ids`` is loaded; those still
    unavailable after the injector's retries land in ``missing`` and the
    caller degrades.  With ``home_pid`` given this scan *seeds*: the
    threshold is the k-th distance inside the home partition's target
    node (lines 10-14; +inf with fewer than ``k`` entries) and the
    target node is skipped by the home partition's own pruned scan.
    Otherwise ``threshold`` carries the value an earlier seed scan
    returned.  Each loaded partition is then MINDIST-pruned and ranked
    on its own (lines 15-16: ``partitions.scan(th).calEuSort(qts)``), so
    only per-partition top-k lists reach :func:`merge_top_k`.  Between
    the two, the rows the node filter kept are priced once more at full
    cardinality (:meth:`LocalPartition.rows_within`) and only those
    still within the threshold are gathered and ranked: a dropped row is
    farther than the seed's k-th, which is in the merge, so the answer
    is the unfiltered one.

    ``ledger``, when given, is charged as the paper's cluster would be —
    loads and scans run in parallel across workers, so each costs its
    slowest single partition.  ``paa`` is the query's PAA word or its
    :class:`~repro.tsdb.distance.GapTable`; every partition scan shares
    the one table.
    """
    gaps = as_gap_table(paa, index.config.cardinality_bits)
    loaded: dict[int, LocalPartition] = {}
    missing: list[int] = []
    load_times = []
    for pid in partition_ids:
        sub_ledger = None if ledger is None else SimulationLedger()
        try:
            loaded[pid] = index.load_partition(pid, ledger=sub_ledger)
        except PartitionUnavailableError:
            missing.append(pid)
        if sub_ledger is not None:
            load_times.append(sub_ledger.clock_s)
    if ledger is not None:
        ledger.record_stage(
            "query/load partitions", wall_s=max(load_times, default=0.0),
            io_s=sum(load_times), tasks=len(load_times),
        )
    scan = PartitionScan(list(loaded), missing, threshold)
    stats = scan.stats
    target = None
    if home_pid is not None:
        home = loaded.get(home_pid)
        if home is None:
            # The threshold partition itself is gone: no sound subset of
            # the baseline can be computed.
            scan.home_lost = True
            return scan
        with _stage(ledger, "query/threshold"):
            target, seed_top, scan.candidates = _target_node_top_k(
                home, signature, query, k, stats
            )
            if len(seed_top) >= k:
                scan.threshold = seed_top[-1].distance
        scan.refined = scan.candidates
        scan.target_layer = target.layer
        scan.tops.append(seed_top)
    scan_times = []
    for pid, partition in loaded.items():
        scratch = None if ledger is None else SimulationLedger()
        with _stage(scratch, "query/scan partition"):
            rows = partition.pruned_entries(
                gaps, scan.threshold, index.series_length,
                skip=target if pid == home_pid else None, stats=stats,
            )
            scan.candidates += len(rows)
            rows = partition.rows_within(
                rows, gaps, scan.threshold, index.series_length
            )
            scan.refined += len(rows)
            scan.tops.append(_top_k(query, partition, rows, k))
        if scratch is not None:
            scan_times.append(scratch.clock_s)
    if ledger is not None:
        ledger.record_stage(
            "query/parallel scan+rank",
            wall_s=max(scan_times, default=0.0),
            cpu_s=sum(scan_times),
            tasks=len(scan_times),
        )
    return scan


def merge_top_k(tops, k: int, missing_bounds=()) -> list[Neighbor]:
    """Alg. 1 line 17's ``take(k)`` over per-partition top-k lists.

    ``(distance, record_id)`` order, one entry per record id, at most
    ``k``.  ``missing_bounds`` are the region bounds of the partitions
    that should have been scanned but were unavailable: each is a lower
    bound on the distance to ANY record of its partition, so every kept
    neighbor *strictly* below the smallest of them provably precedes all
    missing candidates in the baseline ordering — the degraded answer is
    a prefix-subset of the no-fault result.
    """
    merged = sorted(
        (n for top in tops for n in top),
        key=lambda n: (n.distance, n.record_id),
    )
    kept: list[Neighbor] = []
    seen_ids: set[int] = set()
    for neighbor in merged:
        if len(kept) == k:
            break
        if neighbor.record_id not in seen_ids:
            seen_ids.add(neighbor.record_id)
            kept.append(neighbor)
    safe_bound = min(missing_bounds, default=np.inf)
    return [n for n in kept if n.distance < safe_bound]


def _pruned_knn(
    index: TardisIndex, query: np.ndarray, k: int, strategy: str,
    pth: int | None = None, converted: tuple | None = None,
    ledger: SimulationLedger | None = None,
) -> KnnResult:
    """plan → scan → merge, the body of both threshold-pruned strategies.

    ``one-partition`` plans the home partition alone; otherwise the plan
    is :func:`select_mpa_partitions`' sibling list capped at ``pth``
    (default: the config's).  ``converted`` is the query's
    ``(signature, PAA)`` from a tier that already converted it.
    ``ledger`` follows the :func:`_stage` rule.
    """
    _require_clustered(index)
    result = KnnResult(neighbors=[], strategy=strategy)
    if ledger is not None:
        result.ledger = ledger
    if strategy == "one-partition":
        span_attrs = {}
    else:
        pth = pth or index.config.pth
        span_attrs = {"pth": pth}
    with get_tracer().span(
        "query/knn", strategy=strategy, k=k, **span_attrs
    ) as span:
        with _stage(ledger, "query/route"):
            signature, paa = converted or query_signature(index, query)
            # One table per query: the selection and every scan read it.
            gaps = GapTable(paa, index.config.cardinality_bits)
            if strategy == "one-partition":
                home_pid = index.global_index.route(signature)
                pid_list = [home_pid]
            else:
                home_pid, pid_list = select_mpa_partitions(
                    index.global_index, signature, pth,
                    bound_of=sibling_bound_lookup(index, signature, gaps),
                )
        scan = scan_partitions(
            index, query, signature, gaps, k, pid_list,
            home_pid=home_pid, ledger=ledger,
        )
        result.partitions_loaded = len(scan.loaded)
        result.partition_ids_loaded = scan.loaded
        if scan.missing:
            result.degraded = True
            result.missing_partitions = sorted(scan.missing)
            _count_degraded()
        if not scan.home_lost:
            with _stage(ledger, "query/merge"):
                result.neighbors = merge_top_k(
                    scan.tops, k,
                    index.region_bounds(gaps, scan.missing).values()
                    if scan.missing else (),
                )
            result.candidates_examined = scan.candidates
            result.rows_refined = scan.refined
            result.nodes_visited = (scan.target_layer + 1) + scan.stats.visited
            result.nodes_pruned = scan.stats.pruned
        _annotate_knn_span(span, result, ledger)
    _record_query_metrics(result, ledger)
    logger.debug(
        "%s kNN: %d partitions, %d candidates",
        strategy, result.partitions_loaded, result.candidates_examined,
    )
    return result


def knn_one_partition_access(
    index: TardisIndex, query: np.ndarray, k: int
) -> KnnResult:
    """One Partition Access: widen TNA with a pruned home-partition scan."""
    return _pruned_knn(
        index, query, k, "one-partition", ledger=SimulationLedger()
    )


def knn_multi_partitions_access(
    index: TardisIndex,
    query: np.ndarray,
    k: int,
    pth: int | None = None,
) -> KnnResult:
    """Multi-Partitions Access (Alg. 1): prune across sibling partitions.

    The sibling partition list comes from the routed node's parent in
    Tardis-G; when it exceeds ``pth``, the candidates with the smallest
    region-synopsis MINDIST bound are kept (always including the home
    partition, which supplies the pruning threshold).
    """
    return _pruned_knn(
        index, query, k, "multi-partitions", pth, ledger=SimulationLedger()
    )


#: Strategy registry used by benchmarks and examples.
KNN_STRATEGIES = {
    "target-node": knn_target_node_access,
    "one-partition": knn_one_partition_access,
    "multi-partitions": knn_multi_partitions_access,
}
