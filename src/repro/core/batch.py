"""Batch query processing: answer many queries in one partition pass.

Interactive queries (paper §V) load one partition per query.  Analytical
workloads — classification, motif candidates, dedup of a whole ingest
batch — issue thousands of queries at once, and the distributed idiom is
to *group queries by target partition* so each partition is loaded exactly
once and its queries are answered together, partitions in parallel across
workers.  This module provides that execution strategy for exact match
and target-node kNN.  Each query runs the body the interactive call runs
(:mod:`repro.core.queries`), so answers, counters and spans are the same
by construction; the conversion (one pass for the batch), the load (one
per group) and the cost model differ.

Groups run one after another, in partition-id order; the simulated
pass charges them as parallel tasks over ``n_workers``.  Per-query
accounting keeps the interactive invariant (tests/test_accounting.py):
every result reports its ``partition_ids_loaded``, ``strategy``,
``nodes_visited``, and a ledger whose partition-load tasks match
``partitions_loaded``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import numpy as np

from ..cluster import SimulationLedger
from ..cluster.costmodel import timed_stage
from ..telemetry.perf import KERNELS as _KERNELS
from .builder import TardisIndex, convert_batch
from .queries import (
    PartitionLoad,
    _exact_match,
    _require_clustered,
    _target_node_knn,
    run_point_group,
)

__all__ = [
    "BatchReport",
    "batch_exact_match",
    "batch_knn_target_node",
    "group_queries_by_partition",
]


@dataclass
class BatchReport:
    """Per-query answers plus whole-batch execution accounting."""

    results: list
    partitions_loaded: int = 0
    ledger: SimulationLedger = field(default_factory=SimulationLedger)

    @property
    def simulated_seconds(self) -> float:
        return self.ledger.clock_s


def group_queries_by_partition(
    index: TardisIndex, queries: np.ndarray
) -> tuple[dict[int, list[int]], list[tuple[str, np.ndarray]]]:
    """Route every query; returns partition → query indices, plus the
    per-query (signature, PAA) conversions for reuse.

    *The* grouping rule of the batch tier and of the serving
    micro-batcher (:mod:`repro.serving.batcher`).  Conversion is one
    pass over the whole query matrix (identical, row for row, to
    :func:`query_signature`); only the routing table walk is per query.
    """
    if len(queries) == 0:
        return {}, []
    signatures, paa, _symbols = convert_batch(
        np.asarray(queries, dtype=np.float64), index.config
    )
    t0 = perf_counter() if _KERNELS.enabled else 0.0
    groups: dict[int, list[int]] = {}
    for i, signature in enumerate(signatures):
        pid = index.global_index.route(signature)
        groups.setdefault(pid, []).append(i)
    if _KERNELS.enabled:
        _KERNELS.record("route", elements=len(signatures),
                        seconds=perf_counter() - t0)
    return groups, list(zip(signatures, paa))


def _parallel_wall(per_partition_times: list[float], n_workers: int) -> float:
    """Longest-processing-time assignment of partition tasks to workers."""
    if not per_partition_times:
        return 0.0
    workers = [0.0] * max(1, n_workers)
    for task in sorted(per_partition_times, reverse=True):
        workers[workers.index(min(workers))] += task
    return max(workers)


def _partition_pass(
    index: TardisIndex, queries: np.ndarray, body, label: str
) -> BatchReport:
    """Route the batch, answer each partition group as one task, charge it.

    ``body(query, home=)`` is the strategy's per-query body with its
    plan bound.  A group's one load is amortized over the queries that needed
    it as a ``query/load partition (batch-shared)`` task each, so every
    result keeps one load task per reported partition while the batch
    pays once.  The pass costs the longest-processing-time schedule of
    the groups that attempted a load: a failed load's retry/backoff time
    counts, a group the Bloom filter rejected whole does not.
    """
    report = BatchReport(results=[None] * len(queries))
    with timed_stage(report.ledger, "batch/route"):
        groups, converted = group_queries_by_partition(index, queries)

    def run_group(pid: int, indices: list[int]):
        load_ledger, scratch = SimulationLedger(), SimulationLedger()
        load = PartitionLoad(index, pid, load_ledger)
        with timed_stage(scratch, label):
            results = run_point_group(
                load, body, [queries[i] for i in indices],
                [converted[i][0] for i in indices],
            )
        sharers = [r for r in results if getattr(r, "partitions_loaded", 0)]
        share = load_ledger.clock_s / max(1, len(sharers))
        for result in sharers:
            result.ledger.record_stage(
                "query/load partition (batch-shared)", wall_s=share,
                io_s=share, tasks=1,
            )
        status = (
            "skipped" if load.outcome is None
            else "failed" if isinstance(load.outcome, Exception)
            else "loaded"
        )
        return results, load_ledger.clock_s + scratch.clock_s, status

    # One task per group, in deterministic partition-id order.
    items = sorted(groups.items())
    outcomes = [run_group(pid, indices) for pid, indices in items]
    partition_times: list[float] = []
    for (_pid, indices), (results, group_time, status) in zip(items, outcomes):
        for i, result in zip(indices, results):
            report.results[i] = result
        report.partitions_loaded += status == "loaded"
        if status != "skipped":
            partition_times.append(group_time)
    report.ledger.record_stage(
        "batch/partition pass",
        wall_s=_parallel_wall(partition_times, index.config.n_workers),
        io_s=sum(partition_times), tasks=len(partition_times),
    )
    return report


def batch_exact_match(
    index: TardisIndex,
    queries: np.ndarray,
    use_bloom: bool = True,
) -> BatchReport:
    """Exact-match a whole batch with one load per touched partition.

    Bloom filters still short-circuit: a partition whose filter rejects
    *all* of its routed queries is never loaded at all.  Queries that
    needed a partition which would not load hold the typed
    :class:`~repro.faults.errors.PartialResultError` in their result
    slot.
    """
    return _partition_pass(
        index, queries, partial(_exact_match, index, use_bloom=use_bloom),
        "lookup",
    )


def batch_knn_target_node(
    index: TardisIndex,
    queries: np.ndarray,
    k: int,
) -> BatchReport:
    """Target-Node-Access kNN for a whole batch, one load per partition.

    Answers are identical to the interactive target-node strategy query
    for query, and a group whose partition would not load degrades to
    empty answers.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    _require_clustered(index)
    return _partition_pass(
        index, queries, partial(_target_node_knn, index, k=k), "search"
    )
