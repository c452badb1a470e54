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

The pruned strategies refine what the scans kept in one
:class:`RunningTopK`, partitions in lower-bound order under the running
k-th distance.

Each strategy has one body (:func:`_exact_match`, :func:`_target_node_knn`,
:func:`_pruned_knn`) that every tier runs — the library calls below,
:mod:`repro.core.batch` and the serving batcher.  A tier that already
converted and routed its queries hands the conversion in; the simulated
cost ledger is an optional observer (:func:`_stage`): library calls and
the batch tier charge one so average query times reproduce the Fig. 14-16
latency shapes, served reads charge none.  A charge is one tuple appended
to the ledger; its per-stage breakdown is folded from those tuples only
when something reads it, so a query whose ledger nobody reads pays for
the search and a handful of appends.
"""

from __future__ import annotations

import logging
from contextlib import nullcontext
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from ..cluster import SimulationLedger
from ..cluster.costmodel import timed_stage
from ..faults.errors import PartialResultError, PartitionUnavailableError
from ..telemetry.metrics import get_registry
from ..telemetry.spans import get_tracer
from ..tsdb.distance import GapTable, as_gap_table, gather_euclidean
from ..tsdb.paa import paa_transform
from .builder import TardisIndex
from .isaxt import signature_of_paa
from .local_index import _ROW_BOUND_SLACK, LocalPartition, ScanStats
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
    "Candidates",
    "RunningTopK",
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
    #: The candidates that also passed the row bound under the seed's
    #: threshold (all of them under Target Node Access).
    rows_refined: int = 0
    #: Rows whose true distance was computed: the refined rows the
    #: running k-th did not cut.  Depends on the host (a shard sees only
    #: its own partitions), so it is equal across tiers only on one host.
    rows_scored: int = 0
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
     "Candidate series that passed the row bound"),
    ("rows_scored", "query_rows_scored_total",
     "Candidate series whose true distance was computed"),
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
    span.set("rows_scored", result.rows_scored)
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


class Candidates(NamedTuple):
    """One partition's rows that passed the node filter and the row bound."""

    partition: LocalPartition
    rows: np.ndarray
    #: The rows' full-cardinality MINDIST bounds; None when they were
    #: kept under a +inf threshold, which prices nothing.
    bounds: np.ndarray | None

    def nearest(self) -> float:
        """The smallest bound (0.0, a bound of anything, when unpriced)."""
        return 0.0 if self.bounds is None else float(self.bounds.min())


class RunningTopK:
    """The ``k`` nearest distinct record ids scored so far, ranked.

    ``distances`` / ``record_ids`` are parallel arrays in ``(distance,
    record id)`` order — ties break by ascending id, so every tier
    returns the same list — holding at most ``k`` entries and
    one entry per record id (``merge_top_k``'s rule: ids need not be
    unique across partitions).  ``k=None`` keeps every row, duplicates
    included: the range query.  ``scored`` counts the true distances
    computed.
    """

    def __init__(self, k: int | None):
        self.k = k
        self.distances = np.empty(0)
        self.record_ids = np.empty(0, dtype=np.int64)
        self.scored = 0

    @property
    def kth(self) -> float:
        """The k-th distance once ``k`` ids are held; +inf before."""
        if self.k is None or len(self.distances) < self.k:
            return np.inf
        return float(self.distances[-1])

    def score(
        self, query: np.ndarray, partition: LocalPartition, rows: np.ndarray
    ) -> None:
        """Compute the true distances of block ``rows`` and keep the best."""
        if len(rows) == 0:
            return
        block = partition.block
        distances = gather_euclidean(query, block.values, rows)
        self.scored += len(rows)
        record_ids = block.record_ids.take(rows)
        kth = self.kth
        if kth < np.inf:
            # Beaten by all k held entries: it cannot enter.
            near = distances <= kth
            if not near.any():
                return
            distances, record_ids = distances[near], record_ids[near]
        distances = np.concatenate((self.distances, distances))
        record_ids = np.concatenate((self.record_ids, record_ids))
        order = np.lexsort((record_ids, distances))
        if self.k is not None:
            top = order[: self.k]
            if len(set(record_ids[top].tolist())) < len(top):
                # A record id twice: keep its first (nearest) entry.
                _ids, first = np.unique(record_ids[order], return_index=True)
                top = order[np.sort(first)][: self.k]
            order = top
        self.distances = distances[order]
        self.record_ids = record_ids[order]

    def refine(self, query: np.ndarray, found) -> None:
        """Score :class:`Candidates` in bound order under the running k-th.

        Partitions are visited by ascending ``(smallest bound, partition
        id)``; the walk stops at the first whose smallest bound is above
        the k-th distance by more than float rounding can be
        (``_ROW_BOUND_SLACK``, the row bound's own rule), and inside a
        partition the rows above that cut are dropped before the gather.
        The k-th only falls, so a dropped row is farther than the answer;
        a bound *at* the k-th is kept, as its row may tie there with a
        smaller id.
        """
        visits = sorted(
            ((c.nearest(), c.partition.partition_id, c) for c in found),
            key=itemgetter(0, 1),
        )
        for nearest, _pid, entry in visits:
            rows = entry.rows
            cut = self.kth * (1.0 + _ROW_BOUND_SLACK)
            if entry.bounds is not None and cut < np.inf:
                if nearest > cut:
                    break
                rows = rows[entry.bounds <= cut]
            self.score(query, entry.partition, rows)

    def neighbors(self) -> list[Neighbor]:
        return [
            Neighbor(d, r)
            for d, r in zip(self.distances.tolist(), self.record_ids.tolist())
        ]


def _target_node_top_k(
    partition: LocalPartition, signature: str, query: np.ndarray, k: int,
    stats: ScanStats,
) -> tuple[SigTreeNode, RunningTopK, int]:
    """Rank the home target node's entries: ``(node, top-k, candidates)``.

    Target Node Access's answer and the threshold seed of the pruned
    strategies (Alg. 1 lines 10-14) are this one step.
    """
    target = partition.target_node(signature, k)
    rows = partition.entries_under(target, stats=stats)
    top = RunningTopK(k)
    top.score(query, partition, rows)
    return target, top, len(rows)


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
                target, top, result.candidates_examined = (
                    _target_node_top_k(partition, signature, query, k, scan)
                )
                result.neighbors = top.neighbors()
                result.rows_refined = result.candidates_examined
                result.rows_scored = top.scored
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


class _LoadClock:
    """The ``ledger`` :func:`scan_partitions` hands each partition load.

    It keeps only what the scan reads back, the load's simulated
    seconds, summed in charge order as a fresh ledger's ``clock_s``
    would be; the scan zeroes it before each load.
    """

    __slots__ = ("clock_s",)

    def record_stage(self, label: str, wall_s: float, **charges) -> None:
        self.clock_s += wall_s


@dataclass
class PartitionScan:
    """What :func:`scan_partitions` found in one set of partitions."""

    #: Partition ids that loaded, in request order; the rest are missing.
    loaded: list[int]
    missing: list[int]
    #: The pruning threshold used (computed here when this scan seeded).
    threshold: float
    #: Per loaded partition with any, the rows left for the refine.
    found: list[Candidates] = field(default_factory=list)
    #: The home target node's rows, ranked; None unless this scan seeded.
    seed: RunningTopK | None = None
    #: Rows that passed the node filter / of those, the rows that also
    #: passed the row bound (the seed's rows count in both).
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
    """Load, threshold and prune: Alg. 1 lines 5-15 for one host.

    Every partition in ``partition_ids`` is loaded; those still
    unavailable after the injector's retries land in ``missing`` and the
    caller degrades.  With ``home_pid`` given this scan *seeds*: the
    home partition's target node is ranked into ``seed`` and its k-th
    distance is the threshold (lines 10-14; +inf with fewer than ``k``
    entries); the target node is skipped by the home partition's own
    pruned scan.  Otherwise ``threshold`` carries the value an earlier
    seed scan returned.  Each loaded partition is then MINDIST-pruned
    (line 15: ``partitions.scan(th)``) and the rows the node filter kept
    are priced once more at full cardinality
    (:meth:`LocalPartition.rows_within`); what is left goes to
    ``found`` with its bounds, for the caller's one
    :meth:`RunningTopK.refine` (line 16's ``calEuSort``, in bound order).
    A dropped row is farther than the threshold, which the seed's k-th
    distance — in the answer — already meets.

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
    clock = None if ledger is None else _LoadClock()
    for pid in partition_ids:
        if clock is not None:
            clock.clock_s = 0.0
        try:
            loaded[pid] = index.load_partition(pid, ledger=clock)
        except PartitionUnavailableError:
            missing.append(pid)
        if clock is not None:
            load_times.append(clock.clock_s)
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
            target, scan.seed, scan.candidates = _target_node_top_k(
                home, signature, query, k, stats
            )
            scan.threshold = scan.seed.kth
        scan.refined = scan.candidates
        scan.target_layer = target.layer
    scan_times = []
    for pid, partition in loaded.items():
        timer = None if ledger is None else timed_stage(
            None, "query/scan partition"
        )
        with timer or nullcontext():
            rows = partition.pruned_entries(
                gaps, scan.threshold, index.series_length,
                skip=target if pid == home_pid else None, stats=stats,
            )
            scan.candidates += len(rows)
            rows, bounds = partition.rows_within(
                rows, gaps, scan.threshold, index.series_length
            )
            scan.refined += len(rows)
            if len(rows):
                scan.found.append(Candidates(partition, rows, bounds))
        if timer is not None:
            scan_times.append(timer.elapsed_s)
    if ledger is not None:
        ledger.record_stage(
            "query/parallel scan",
            wall_s=max(scan_times, default=0.0),
            cpu_s=sum(scan_times),
            tasks=len(scan_times),
        )
    return scan


def merge_top_k(tops, k: int, missing_bounds=()) -> list[Neighbor]:
    """Alg. 1 line 17's ``take(k)`` over top-k lists that arrive apart.

    The router gathers the shards' replies with it, and a degraded
    answer is cut with it.  ``(distance, record_id)`` order, one entry
    per record id, at most ``k``.  ``missing_bounds`` are the region
    bounds of the partitions that should have been scanned but were
    unavailable: each is a lower bound on the distance to ANY record of
    its partition, so every kept neighbor *strictly* below the smallest
    of them provably precedes all missing candidates in the baseline
    ordering — the degraded answer is a prefix-subset of the no-fault
    result.
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
    """plan → scan → refine, the body of both threshold-pruned strategies.

    ``one-partition`` plans the home partition alone; otherwise the plan
    is :func:`select_mpa_partitions`' sibling list capped at ``pth``
    (``None``: the config's).  ``converted`` is the query's
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
        if pth is None:
            pth = index.config.pth
        elif pth < 1:
            raise ValueError("pth must be a positive partition count")
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
                top = scan.seed
                top.refine(query, scan.found)
                result.neighbors = top.neighbors()
                if scan.missing:
                    result.neighbors = merge_top_k(
                        [result.neighbors], k,
                        index.region_bounds(gaps, scan.missing).values(),
                    )
            result.candidates_examined = scan.candidates
            result.rows_refined = scan.refined
            result.rows_scored = top.scored
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
