"""Trace propagation through the serving pipeline.

The invariant: every served query yields exactly one root span named
``serve/request``, whose children partition the request's life into
queue-wait, batch-wait and execute segments — even though the request
crosses the admission queue and the batcher thread on the way.
"""

import numpy as np
import pytest

from repro.serving import QueryRequest, QueryService
from repro.telemetry.spans import disable_tracing, enable_tracing
from repro.telemetry.journal import EventJournal

SEGMENTS = ("serve/queue-wait", "serve/batch-wait", "serve/execute")


@pytest.fixture()
def tracer():
    tracer = enable_tracing(reset=True)
    yield tracer
    disable_tracing()


def _mixed_requests(rw_small, heldout_queries):
    """One request per op/strategy the acceptance bar names."""
    return [
        QueryRequest(rw_small.values[0], op="exact-match"),
        QueryRequest(heldout_queries[0], k=5, strategy="target-node"),
        QueryRequest(heldout_queries[1], k=5, strategy="one-partition"),
        QueryRequest(heldout_queries[2], k=5, strategy="multi-partitions",
                     pth=4),
    ]


def _serve_all(index, requests, **kwargs):
    with QueryService(
        index,
        max_batch=4,
        max_delay_ms=2.0,
        result_cache_size=kwargs.pop("result_cache_size", None),
        journal=kwargs.pop("journal", EventJournal(capacity=256)),
        **kwargs,
    ) as service:
        futures = [service.submit(r) for r in requests]
        for future in futures:
            future.result(timeout=30)
        slo_latency_sum = service.slo._latency_hist.sum
    return futures, slo_latency_sum


class TestOneRootPerQuery:
    def test_exactly_one_root_per_served_query(
        self, tracer, tardis_small, rw_small, heldout_queries
    ):
        requests = _mixed_requests(rw_small, heldout_queries)
        _serve_all(tardis_small, requests)
        roots = list(tracer.roots)
        assert len(roots) == len(requests)
        assert all(r.name == "serve/request" for r in roots)
        # Each tree carries a single trace id (no fragmentation across
        # the queue or the batcher thread).
        for root in roots:
            assert {s.trace_id for s in root.iter_spans()} == {root.trace_id}
        # And the four trees are four distinct traces.
        assert len({r.trace_id for r in roots}) == len(requests)

    def test_all_segments_present(
        self, tracer, tardis_small, rw_small, heldout_queries
    ):
        requests = _mixed_requests(rw_small, heldout_queries)
        _serve_all(tardis_small, requests)
        for root in tracer.roots:
            child_names = {c.name for c in root.children}
            for segment in SEGMENTS:
                assert segment in child_names, (root.name, child_names)
            # Every span in the tree is finished.
            assert all(s.end_s is not None for s in root.iter_spans())

    def test_segment_sums_bracket_slo_latency(
        self, tracer, tardis_small, rw_small, heldout_queries
    ):
        requests = _mixed_requests(rw_small, heldout_queries)
        _, slo_latency_sum = _serve_all(tardis_small, requests)
        segment_total = 0.0
        root_total = 0.0
        for root in tracer.roots:
            segments = sum(
                c.duration_s for c in root.children if c.name in SEGMENTS
            )
            # The three segments tile the root's lifetime: together they
            # can never exceed it (5 ms slack for clock reads between
            # segment boundaries).
            assert segments <= root.duration_s + 0.005
            segment_total += segments
            root_total += root.duration_s
        # SLO latency is measured enqueue → finish, which the segments
        # tile from below and the root duration covers from above.
        slack = 0.005 * len(requests)
        assert segment_total <= slo_latency_sum + slack
        assert slo_latency_sum <= root_total + slack


class TestCacheAndSharedPasses:
    def test_cache_hit_root_has_cache_segment(
        self, tracer, tardis_small, rw_small
    ):
        request_a = QueryRequest(rw_small.values[1], k=3,
                                 strategy="target-node")
        request_b = QueryRequest(rw_small.values[1], k=3,
                                 strategy="target-node")
        _serve_all(tardis_small, [request_a], result_cache_size=64)
        # Same query again: served from the result cache, but still one
        # root of its own with a serve/cache child.
        with QueryService(
            tardis_small, max_batch=4, max_delay_ms=2.0, result_cache_size=64,
            journal=EventJournal(capacity=64),
        ) as service:
            service.submit(request_a).result(timeout=30)
            service.submit(request_b).result(timeout=30)
        roots = [r for r in tracer.roots]
        cached = [r for r in roots
                  if "serve/cache" in {c.name for c in r.children}]
        assert cached, [r.name for r in roots]
        assert all(r.name == "serve/request" for r in roots)

    def test_shared_batch_pass_marks_siblings(
        self, tracer, tardis_small, rw_small
    ):
        # Identical exact-match queries land in one group and run as a
        # single batch pass; the carrier's root holds the core spans and
        # siblings point at it via shared_execution_trace.
        query = rw_small.values[2]
        requests = [QueryRequest(query, op="exact-match") for _ in range(3)]
        _serve_all(tardis_small, requests)
        roots = list(tracer.roots)
        assert len(roots) == len(requests)
        executes = [c for r in roots for c in r.children
                    if c.name == "serve/execute"]
        assert len(executes) == len(requests)
        carriers = [e for e in executes if e.children]
        siblings = [e for e in executes
                    if "shared_execution_trace" in e.attributes]
        assert len(carriers) == 1
        assert len(siblings) == len(requests) - 1
        assert all(
            s.attributes["shared_execution_trace"] == carriers[0].trace_id
            for s in siblings
        )

    @pytest.mark.parametrize("plan", (
        dict(op="exact-match"),
        dict(op="knn", strategy="target-node", k=5),
    ))
    def test_served_point_request_carries_the_library_spans(
        self, tracer, tardis_small, rw_small, plan
    ):
        """A served exact-match / target-node request runs the library's
        body: its ``serve/execute`` subtree (the carrier's, for a shared
        group) holds the direct call's ``query/*`` span with the direct
        call's attributes and the partition load — and none of the batch
        tier's stages."""
        from repro.core.queries import exact_match, knn_target_node_access

        query = rw_small.values[4]
        if plan["op"] == "exact-match":
            name = "query/exact-match"
            exact_match(tardis_small, query)
        else:
            name = "query/knn"
            knn_target_node_access(tardis_small, query, plan["k"])
        [direct] = tracer.roots
        assert direct.name == name
        tracer.reset()

        requests = [QueryRequest(query, **plan) for _ in range(2)]
        _serve_all(tardis_small, requests)
        by_trace = {root.trace_id: root for root in tracer.roots}
        assert len(by_trace) == len(requests)
        for root in by_trace.values():
            [execute] = [c for c in root.children if c.name == "serve/execute"]
            shared = execute.attributes.get("shared_execution_trace")
            if shared is not None:
                [execute] = [c for c in by_trace[shared].children
                             if c.name == "serve/execute"]
            spans = list(execute.iter_spans())
            names = {span.name for span in spans}
            assert "query/load partition" in names
            assert not names & {"batch/route", "lookup", "search"}
            # No ledger on the served path, so no ledger-stage spans.
            assert not names & {"query/route", "query/local search"}
            query_span = next(span for span in spans if span.name == name)
            served = dict(query_span.attributes)
            wanted = dict(direct.attributes)
            # Regression: the served span used to claim ``simulated_s:
            # 0.0``.  Nothing simulated a latency here, so it claims none;
            # the library call's ledger did, and its span says so.
            assert "simulated_s" not in served
            if name == "query/knn":
                assert wanted.pop("simulated_s") > 0
            assert served == wanted

    @pytest.mark.parametrize("strategy", ("one-partition", "multi-partitions"))
    def test_served_scan_request_carries_the_library_spans(
        self, tracer, tardis_small, rw_small, strategy
    ):
        """A served scan runs the library's pruned body per ticket, with
        no ledger: its ``query/knn`` span has the direct call's
        attributes minus ``simulated_s``, and none of the ledger's stage
        spans (route, threshold, scan partition, merge)."""
        from repro.core.queries import KNN_STRATEGIES

        query = rw_small.values[5]
        KNN_STRATEGIES[strategy](tardis_small, query, 5)
        [direct] = tracer.roots
        assert direct.name == "query/knn"
        direct_names = {span.name for span in direct.iter_spans()}
        assert {"query/route", "query/scan partition"} <= direct_names
        tracer.reset()

        request = QueryRequest(query, op="knn", strategy=strategy, k=5)
        _serve_all(tardis_small, [request])
        [root] = tracer.roots
        [execute] = [c for c in root.children if c.name == "serve/execute"]
        spans = list(execute.iter_spans())
        names = {span.name for span in spans}
        assert "query/load partition" in names
        assert not names & {
            "query/route", "query/threshold", "query/scan partition",
            "query/merge", "query/load partitions",
        }
        [query_span] = [span for span in spans if span.name == "query/knn"]
        served = dict(query_span.attributes)
        wanted = dict(direct.attributes)
        assert "simulated_s" not in served
        assert wanted.pop("simulated_s") > 0
        assert served == wanted
