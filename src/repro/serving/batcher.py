"""Partition-aware micro-batching: group concurrent queries, run groups.

The distributed idiom behind TARDIS's batch tier (repro.core.batch) is
*group queries by target partition so each partition is loaded once*.
The serving tier applies the same rule to whatever happens to be queued
at flush time: a window of tickets is converted and routed in one pass
(:func:`repro.core.batch.group_queries_by_partition`, the batch tier's
own routing) and bucketed by **plan** (op, strategy, k, pth — never mix
different work; see tests/serving/test_result_cache.py) and **Tardis-G
home partition**.  Every ticket keeps its ``(signature, PAA)`` from that
pass, so a served read is converted and routed exactly once.

Each :class:`Group` runs on the batcher thread and, per ticket, runs
the strategy's body from :mod:`repro.core.queries` — the code a direct
library call runs, so answers, counters and ``query/*`` spans are the
library's by construction.  ``exact-match`` and ``target-node`` groups
share one partition load (:func:`~repro.core.queries.run_point_group`);
``one-partition`` / ``multi-partitions`` groups run the pruned scan per
ticket, sharing residency.  No served read charges the simulated
ledger: it reproduces the paper's cluster, not this process, so served
spans carry no ``simulated_s`` and no ledger stage spans.

**Tracing.**  :func:`run_group` opens one ``serve/execute`` span per
ticket under that ticket's request root.  The scan strategies attach
each ticket's span in turn, so the core ``query/*`` spans nest under the
right request.  A point group shares its load, so the first ticket's
span is elected **carrier** — every ticket's ``query/*`` span and the
one ``query/load partition`` nest under it — and every sibling records
``shared_execution_trace`` naming the carrier's trace so the shared work
stays discoverable without double-counting it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..core.batch import group_queries_by_partition
from ..core.builder import TardisIndex
from ..core.queries import (
    PartitionLoad,
    _exact_match,
    _pruned_knn,
    _target_node_knn,
    run_point_group,
)
from ..telemetry.spans import NULL_SPAN, Span, get_tracer

__all__ = ["Group", "group_tickets", "run_group", "partitions_loaded"]


@dataclass
class Group:
    """One unit of batched work: same plan, same home partition."""

    plan_key: tuple
    partition_id: int
    tickets: list = field(default_factory=list)
    #: Each ticket's ``(signature, PAA)`` from the window's one conversion.
    converted: list = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.tickets)


def group_tickets(index: TardisIndex, tickets: list) -> list[Group]:
    """Split a flushed window into per-(plan, home-partition) groups.

    Deterministic order (plan key, then partition id; tickets in window
    order) so the order groups run in is reproducible.
    """
    if not tickets:
        return []
    by_partition, converted = group_queries_by_partition(
        index, np.vstack([t.request.series for t in tickets])
    )
    groups: dict[tuple, Group] = {}
    for pid, members in by_partition.items():
        for i in members:
            plan_key = tickets[i].request.plan_key()
            key = (repr(plan_key), pid)
            if key not in groups:
                groups[key] = Group(plan_key, pid)
            groups[key].tickets.append(tickets[i])
            groups[key].converted.append(converted[i])
    return [groups[key] for key in sorted(groups)]


def run_group(index: TardisIndex, group: Group) -> list:
    """Execute one group; returns core results aligned with its tickets."""
    tracer = get_tracer()
    spans = []
    for ticket in group.tickets:
        parent = getattr(ticket, "span", NULL_SPAN)
        if isinstance(parent, Span):
            spans.append(tracer.start_span(
                "serve/execute", parent=parent,
                group_size=group.size, partition_id=group.partition_id,
            ))
        else:
            spans.append(NULL_SPAN)
    try:
        return _dispatch(index, group, spans, tracer)
    finally:
        for span in spans:
            tracer.end_span(span)


def _dispatch(index: TardisIndex, group: Group, spans: list, tracer) -> list:
    queries = [t.request.series for t in group.tickets]
    op, plan = group.plan_key[0], group.plan_key[1:]
    if op == "exact-match" or plan[0] == "target-node":
        # One shared load for the whole group: elect the first real span
        # as carrier of the core child spans; siblings point at it.
        carrier = next((s for s in spans if isinstance(s, Span)), NULL_SPAN)
        for span in spans:
            if span is not carrier and isinstance(span, Span):
                span.set("shared_execution_trace", carrier.trace_id)
        if op == "exact-match":
            body = partial(_exact_match, index, use_bloom=plan[0])
        else:
            body = partial(_target_node_knn, index, k=plan[1])
        token = tracer.attach(carrier)
        try:
            return run_point_group(
                PartitionLoad(index, group.partition_id), body, queries,
                [signature for signature, _paa in group.converted],
            )
        finally:
            tracer.detach(token)
    strategy, k, pth = plan
    results = []
    for query, converted, span in zip(queries, group.converted, spans):
        token = tracer.attach(span)
        try:
            results.append(
                _pruned_knn(index, query, k, strategy, pth, converted)
            )
        finally:
            tracer.detach(token)
    return results


def partitions_loaded(results) -> set[int]:
    """Distinct partitions a group's results touched (for SLO accounting).

    An exact/target-node group performed exactly one shared load of the
    one partition in this set; for the scan strategies the set is what a
    residency-sharing group loads once.
    """
    touched: set[int] = set()
    for result in results:
        # Result slots may hold typed per-query failures (e.g.
        # PartialResultError for a lost partition) — those loaded nothing.
        touched.update(getattr(result, "partition_ids_loaded", ()))
    return touched
