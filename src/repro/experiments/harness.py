"""Shared evaluation harness behind the ``benchmarks/`` suite.

Builds TARDIS and the DPiSAX baseline on identical datasets/storage, runs
query workloads, and reduces everything to the rows the paper's figures
plot.  Benchmarks import from here so each figure script stays a thin
parameter sweep.

Datasets and built indices are memoized per (key, size) so the many figure
benchmarks that share a configuration do not rebuild from scratch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..baseline.dpisax import (
    DpisaxConfig,
    DpisaxIndex,
    build_dpisax_index,
    exact_match_baseline,
    knn_baseline,
)
from ..cluster import SimCluster
from ..core.builder import TardisIndex, build_tardis_index
from ..core.config import TardisConfig
from ..core.ground_truth import brute_force_knn
from ..core.queries import (
    exact_match,
    knn_multi_partitions_access,
    knn_one_partition_access,
    knn_target_node_access,
)
from ..metrics.accuracy import error_ratio, mean, recall
from ..telemetry.exporters import aggregate_spans
from ..telemetry.spans import get_tracer
from ..tsdb.series import TimeSeriesDataset
from .workloads import ExactQuery, dataset_with_heldout_queries

logger = logging.getLogger(__name__)


def _trace_mark() -> int:
    """Current root-span count; pair with :func:`_trace_summary_since`."""
    tracer = get_tracer()
    return len(tracer.roots) if tracer.enabled else 0


def _trace_summary_since(mark: int) -> dict | None:
    """Aggregate spans finished since ``mark`` (None when tracing is off).

    The per-span-name ``{count, total_s, simulated_s}`` summary that gets
    attached to result rows, so every report carries the trace evidence
    behind its averaged timings (Fig. 11/14 style breakdowns).
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return None
    summary = aggregate_spans(tracer.roots[mark:])
    return summary or None

__all__ = [
    "ConstructionReport",
    "ExactMatchReport",
    "KnnReport",
    "get_dataset_and_queries",
    "get_tardis",
    "get_dpisax",
    "build_tardis_with_report",
    "build_dpisax_with_report",
    "evaluate_exact_match",
    "evaluate_knn",
    "KNN_METHOD_ORDER",
]

#: Row order used by the kNN figures: baseline first, then the three
#: TARDIS strategies in increasing candidate scope.
KNN_METHOD_ORDER = ("baseline", "target-node", "one-partition", "multi-partitions")


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


@dataclass
class ConstructionReport:
    """Simulated construction costs and sizes of one built index."""

    system: str
    dataset: str
    n_records: int
    total_s: float
    global_s: float
    local_s: float
    breakdown: dict[str, float]
    global_index_nbytes: int
    local_index_nbytes: int
    n_partitions: int
    #: Per-span-name trace aggregate (None when tracing is disabled).
    trace_summary: dict | None = field(default=None, repr=False)

    @staticmethod
    def _phase_sum(breakdown: dict[str, float], prefix: str) -> float:
        return sum(v for k, v in breakdown.items() if k.startswith(prefix))


def build_tardis_with_report(
    dataset: TimeSeriesDataset,
    config: TardisConfig | None = None,
    **build_kwargs,
) -> tuple[TardisIndex, ConstructionReport]:
    """Build TARDIS and summarize its ledger into a report."""
    config = config or TardisConfig()
    cluster = SimCluster(n_workers=config.n_workers)
    mark = _trace_mark()
    index = build_tardis_index(dataset, config, cluster=cluster, **build_kwargs)
    breakdown = cluster.ledger.breakdown()
    report = ConstructionReport(
        trace_summary=_trace_summary_since(mark),
        system="TARDIS",
        dataset=dataset.name,
        n_records=len(dataset),
        total_s=cluster.ledger.clock_s,
        global_s=ConstructionReport._phase_sum(breakdown, "global/"),
        local_s=ConstructionReport._phase_sum(breakdown, "local/"),
        breakdown=breakdown,
        global_index_nbytes=index.global_index_nbytes(),
        local_index_nbytes=index.local_index_nbytes(),
        n_partitions=len(index.partitions),
    )
    return index, report


def build_dpisax_with_report(
    dataset: TimeSeriesDataset,
    config: DpisaxConfig | None = None,
    **build_kwargs,
) -> tuple[DpisaxIndex, ConstructionReport]:
    """Build the baseline and summarize its ledger into a report."""
    config = config or DpisaxConfig()
    cluster = SimCluster(n_workers=config.n_workers)
    index = build_dpisax_index(dataset, config, cluster=cluster, **build_kwargs)
    breakdown = cluster.ledger.breakdown()
    report = ConstructionReport(
        system="Baseline",
        dataset=dataset.name,
        n_records=len(dataset),
        total_s=cluster.ledger.clock_s,
        global_s=ConstructionReport._phase_sum(breakdown, "global/"),
        local_s=ConstructionReport._phase_sum(breakdown, "local/"),
        breakdown=breakdown,
        global_index_nbytes=index.global_index_nbytes(),
        local_index_nbytes=index.local_index_nbytes(),
        n_partitions=len(index.partitions),
    )
    return index, report


# ---------------------------------------------------------------------------
# Memoized builders (shared across benchmark modules in one session)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def get_dataset_and_queries(
    key: str, count: int, n_queries: int = 50
) -> tuple[TimeSeriesDataset, np.ndarray]:
    return dataset_with_heldout_queries(key, count, n_queries)


@lru_cache(maxsize=16)
def get_tardis(key: str, count: int) -> tuple[TardisIndex, ConstructionReport]:
    dataset, _queries = get_dataset_and_queries(key, count)
    return build_tardis_with_report(dataset)


@lru_cache(maxsize=16)
def get_dpisax(key: str, count: int) -> tuple[DpisaxIndex, ConstructionReport]:
    dataset, _queries = get_dataset_and_queries(key, count)
    return build_dpisax_with_report(dataset)


# ---------------------------------------------------------------------------
# Exact match evaluation (Fig. 14)
# ---------------------------------------------------------------------------


@dataclass
class ExactMatchReport:
    """Averaged exact-match behaviour over one workload."""

    system: str
    n_queries: int
    avg_time_s: float
    recall: float
    false_answers: int
    partition_loads: int
    bloom_rejections: int = 0
    #: Per-span-name trace aggregate (None when tracing is disabled).
    trace_summary: dict | None = field(default=None, repr=False)


def evaluate_exact_match(
    index: TardisIndex | DpisaxIndex,
    queries: list[ExactQuery],
    use_bloom: bool = True,
) -> ExactMatchReport:
    """Run an exact-match workload and average the simulated times.

    Works for both systems; ``use_bloom`` selects Tardis-BF vs
    Tardis-NoBF and is ignored for the baseline (which has no filter).
    """
    is_tardis = isinstance(index, TardisIndex)
    mark = _trace_mark()
    results = [
        exact_match(index, query.values, use_bloom=use_bloom) if is_tardis
        else exact_match_baseline(index, query.values)
        for query in queries
    ]
    times, correct, false_answers, loads, rejections = [], 0, 0, 0, 0
    for query, result in zip(queries, results):
        if is_tardis:
            rejections += int(result.bloom_rejected)
        times.append(result.simulated_seconds)
        loads += result.partitions_loaded
        if query.present:
            correct += int(query.record_id in result.record_ids)
        else:
            correct += int(not result.record_ids)
            false_answers += int(bool(result.record_ids))
    if is_tardis:
        system = "Tardis-BF" if use_bloom else "Tardis-NoBF"
    else:
        system = "Baseline"
    return ExactMatchReport(
        system=system,
        n_queries=len(queries),
        avg_time_s=mean(times),
        recall=correct / len(queries),
        false_answers=false_answers,
        partition_loads=loads,
        bloom_rejections=rejections,
        trace_summary=_trace_summary_since(mark),
    )


# ---------------------------------------------------------------------------
# kNN approximate evaluation (Figs. 15-16)
# ---------------------------------------------------------------------------


@dataclass
class KnnReport:
    """Averaged kNN quality/latency for one method at one configuration."""

    method: str
    k: int
    recall: float
    error_ratio: float
    avg_time_s: float
    avg_candidates: float
    avg_partitions: float
    n_queries: int = 0
    short_answers: int = 0  # queries answered with fewer than k results
    #: Per-span-name trace aggregate (None when tracing is disabled).
    trace_summary: dict | None = field(default=None, repr=False)


def _run_method(
    method: str,
    tardis: TardisIndex | None,
    dpisax: DpisaxIndex | None,
    query: np.ndarray,
    k: int,
):
    """Dispatch one query to one method, returning (ids, dists, result)."""
    if method == "baseline":
        if dpisax is None:
            raise ValueError("baseline method requires a DPiSAX index")
        result = knn_baseline(dpisax, query, k)
        return result.record_ids, result.distances, result
    if tardis is None:
        raise ValueError(f"method {method!r} requires a TARDIS index")
    fn = {
        "target-node": knn_target_node_access,
        "one-partition": knn_one_partition_access,
        "multi-partitions": knn_multi_partitions_access,
    }[method]
    result = fn(tardis, query, k)
    return result.record_ids, result.distances, result


def evaluate_knn(
    dataset: TimeSeriesDataset,
    queries: np.ndarray,
    k: int,
    tardis: TardisIndex | None = None,
    dpisax: DpisaxIndex | None = None,
    methods: tuple[str, ...] = KNN_METHOD_ORDER,
) -> list[KnnReport]:
    """Evaluate methods against brute-force ground truth (Fig. 15 rows).

    Ground truth is computed once per query and shared by every method.
    Methods returning fewer than ``k`` answers are scored on recall as-is
    (missing answers are misses) and on error ratio over the answers they
    did return, with the shortfall counted in ``short_answers``.
    """
    query_list = list(queries)
    truths = [brute_force_knn(dataset, q, k) for q in query_list]
    reports = []
    for method in methods:
        recalls, ratios, times, cands, parts = [], [], [], [], []
        short = 0
        mark = _trace_mark()
        method_results = [
            _run_method(method, tardis, dpisax, q, k) for q in query_list
        ]
        for (ids, dists, result), truth in zip(method_results, truths):
            truth_ids = [n.record_id for n in truth]
            truth_dists = [n.distance for n in truth]
            recalls.append(recall(ids, truth_ids))
            if len(dists) < k:
                short += 1
            depth = min(len(dists), k)
            if depth:
                ratios.append(error_ratio(dists[:depth], truth_dists[:depth]))
            times.append(result.simulated_seconds)
            cands.append(result.candidates_examined)
            parts.append(result.partitions_loaded)
        reports.append(
            KnnReport(
                method=method,
                k=k,
                recall=mean(recalls),
                error_ratio=mean(ratios) if ratios else float("nan"),
                avg_time_s=mean(times),
                avg_candidates=mean(cands),
                avg_partitions=mean(parts),
                n_queries=len(queries),
                short_answers=short,
                trace_summary=_trace_summary_since(mark),
            )
        )
        logger.debug("evaluated %s: recall %.3f", method, reports[-1].recall)
    return reports
