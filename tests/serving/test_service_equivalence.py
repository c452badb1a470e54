"""Serving equivalence: the server answers exactly like the library.

The acceptance bar for the serving tier: for a fixed index and query
set, results through the service — any executor backend, any batch size
— are identical to the same queries issued serially through
:mod:`repro.core.queries`.  Identical means exact equality of record
ids and float distances, not approximate closeness: the batch runners
and the interactive path share the same kernels, so there is no
tolerance to hide behind.
"""

import numpy as np
import pytest

from repro.core.queries import (
    exact_match,
    knn_multi_partitions_access,
    knn_one_partition_access,
    knn_target_node_access,
)
from repro.serving import QueryRequest, QueryService

BACKENDS = ("serial", "threads")


@pytest.fixture(scope="module")
def query_mix(rw_small, heldout_queries):
    """Present rows (exact hits, partition reuse) plus held-out probes."""
    return np.vstack([rw_small.values[:12], heldout_queries[:8]])


def _serial_reference(index, queries, op, strategy, k, pth):
    if op == "exact-match":
        return [exact_match(index, q) for q in queries]
    fn = {
        "target-node": lambda q: knn_target_node_access(index, q, k),
        "one-partition": lambda q: knn_one_partition_access(index, q, k),
        "multi-partitions": lambda q: knn_multi_partitions_access(
            index, q, k, pth=pth
        ),
    }[strategy]
    return [fn(q) for q in queries]


def _served(index, queries, backend, max_batch, op, strategy, k, pth):
    # ``max_batch=None`` is the default construction: the shipped window
    # cap and no linger, so the windows are whatever the backlog made.
    window = (
        {} if max_batch is None
        else {"max_batch": max_batch, "max_delay_ms": 5.0}
    )
    with QueryService(
        index,
        **window,
        executor=backend,
        jobs=4,
        result_cache_size=None,  # compare executions, not memoization
    ) as service:
        futures = [
            service.submit(
                QueryRequest(q, op=op, strategy=strategy, k=k, pth=pth)
            )
            for q in queries
        ]
        return [f.result(timeout=60) for f in futures]


def _assert_knn_identical(served, reference):
    for got, want in zip(served, reference):
        assert got.strategy == want.strategy
        assert got.record_ids == want.record_ids
        assert got.distances == want.distances  # exact float equality
        assert got.candidates_examined == want.candidates_examined
        assert got.rows_refined == want.rows_refined
        assert sorted(got.partition_ids_loaded) == sorted(
            want.partition_ids_loaded
        )
        assert got.partitions_loaded == want.partitions_loaded
        assert got.nodes_visited == want.nodes_visited
        assert got.nodes_pruned == want.nodes_pruned


@pytest.mark.parametrize("backend", BACKENDS)
class TestEquivalencePerBackend:
    def test_exact_match(self, tardis_small, query_mix, backend):
        reference = _serial_reference(
            tardis_small, query_mix, "exact-match", None, 0, None
        )
        served = _served(
            tardis_small, query_mix, backend, 8, "exact-match", None, 0, None
        )
        for got, want in zip(served, reference):
            assert got.record_ids == want.record_ids
            assert got.bloom_rejected == want.bloom_rejected
            assert got.found == want.found
            assert got.partitions_loaded == want.partitions_loaded
            assert got.partition_ids_loaded == want.partition_ids_loaded
            assert got.nodes_visited == want.nodes_visited

    def test_knn_target_node(self, tardis_small, query_mix, backend):
        reference = _serial_reference(
            tardis_small, query_mix, "knn", "target-node", 10, None
        )
        served = _served(
            tardis_small, query_mix, backend, 8, "knn", "target-node", 10,
            None,
        )
        _assert_knn_identical(served, reference)

    def test_knn_one_partition(self, tardis_small, query_mix, backend):
        reference = _serial_reference(
            tardis_small, query_mix, "knn", "one-partition", 10, None
        )
        served = _served(
            tardis_small, query_mix, backend, 8, "knn", "one-partition", 10,
            None,
        )
        _assert_knn_identical(served, reference)

    def test_knn_multi_partitions(self, tardis_small, query_mix, backend):
        reference = _serial_reference(
            tardis_small, query_mix, "knn", "multi-partitions", 10, 3
        )
        served = _served(
            tardis_small, query_mix, backend, 8, "knn", "multi-partitions",
            10, 3,
        )
        _assert_knn_identical(served, reference)


QUERY_COUNTERS = (
    "queries_total",
    "query_candidates_examined_total",
    "query_rows_refined_total",
    "query_rows_scored_total",
    "query_nodes_visited_total",
    "query_mindist_prunes_total",
    "query_bloom_positives_total",
    "query_bloom_negatives_total",
)


def test_query_counters_identical_on_every_tier(
    tardis_small, rw_small, heldout_queries
):
    """One body per strategy, so a query moves the query counters by the
    same amounts whether it arrives as a direct call, in a ``batch_*``
    pass or through the service — a server answering point traffic used
    to export all of them at 0.  ``rows_refined`` is the one count the
    row bound moves: the same on every tier, all of the candidates under
    Target Node Access, fewer under a finite threshold."""
    from repro.core import batch_exact_match, batch_knn_target_node
    from repro.telemetry.metrics import get_registry

    index, hit = tardis_small, rw_small.values[3]
    ghost = next(
        q for q in heldout_queries if exact_match(index, q).bloom_rejected
    )
    probe = heldout_queries[1]
    # (query, plan, direct call, batch call or None)
    cases = [
        (hit, dict(op="exact-match"),
         lambda: exact_match(index, hit),
         lambda: batch_exact_match(index, hit[None, :])),
        (ghost, dict(op="exact-match"),
         lambda: exact_match(index, ghost),
         lambda: batch_exact_match(index, ghost[None, :])),
        (hit, dict(op="exact-match", use_bloom=False),
         lambda: exact_match(index, hit, use_bloom=False),
         lambda: batch_exact_match(index, hit[None, :], use_bloom=False)),
        (probe, dict(op="knn", strategy="target-node", k=5),
         lambda: knn_target_node_access(index, probe, 5),
         lambda: batch_knn_target_node(index, probe[None, :], 5)),
        (probe, dict(op="knn", strategy="one-partition", k=5),
         lambda: knn_one_partition_access(index, probe, 5), None),
        (probe, dict(op="knn", strategy="multi-partitions", k=5, pth=3),
         lambda: knn_multi_partitions_access(index, probe, 5, pth=3), None),
    ]
    registry = get_registry()

    refined_at = QUERY_COUNTERS.index("query_rows_refined_total")

    def deltas(run):
        """Counter movements of one query, after checking the refined
        counter moved by what the result itself reports."""
        before = [registry.counter(name).value for name in QUERY_COUNTERS]
        result = run()
        moved = [
            registry.counter(name).value - was
            for name, was in zip(QUERY_COUNTERS, before)
        ]
        [result] = getattr(result, "results", [result])  # a batch report
        assert moved[refined_at] == getattr(result, "rows_refined", 0)
        return moved

    with QueryService(
        index, max_delay_ms=0.0, executor="serial", result_cache_size=None
    ) as service:
        for query, plan, direct, batch in cases:
            want = deltas(direct)
            assert want[0] == 1, plan
            served = deltas(
                lambda: service.submit(QueryRequest(query, **plan)).result(30)
            )
            assert served == want, plan
            if batch is not None:
                assert deltas(batch) == want, plan
            candidates = want[QUERY_COUNTERS.index(
                "query_candidates_examined_total"
            )]
            if plan.get("strategy") == "target-node":
                assert want[refined_at] == candidates > 0
            elif "strategy" in plan:
                assert 0 < want[refined_at] < candidates, plan


@pytest.mark.parametrize("max_batch", (1, 4, 32, None))
def test_equivalence_across_batch_sizes(tardis_small, query_mix, max_batch):
    """Window shape is a performance knob, never a correctness knob:
    answers, query counters and ``query/knn`` spans are the direct
    call's whether the windows were sized, lingered for, or (``None``,
    the default construction) formed from backlog."""
    from repro.telemetry.metrics import get_registry
    from repro.telemetry.spans import disable_tracing, enable_tracing

    registry = get_registry()

    def observed(run):
        """(results, query-counter movements, every ``query/knn``
        span's attributes) of one pass over the query mix."""
        tracer = enable_tracing(reset=True)
        before = [registry.counter(name).value for name in QUERY_COUNTERS]
        try:
            results = run()
        finally:
            disable_tracing()
        moved = [
            registry.counter(name).value - was
            for name, was in zip(QUERY_COUNTERS, before)
        ]
        spans = [
            {k: v for k, v in span.attributes.items() if k != "simulated_s"}
            for root in tracer.roots for span in root.iter_spans()
            if span.name == "query/knn"
        ]
        return results, moved, spans

    def by_answer(spans):  # windows finish in any order
        return sorted(spans, key=lambda attrs: repr(sorted(attrs.items())))

    reference, want_moved, want_spans = observed(lambda: _serial_reference(
        tardis_small, query_mix, "knn", "target-node", 5, None
    ))
    served, moved, spans = observed(lambda: _served(
        tardis_small, query_mix, "threads", max_batch, "knn", "target-node",
        5, None,
    ))
    _assert_knn_identical(served, reference)
    assert moved == want_moved
    assert len(want_spans) == len(query_mix)
    assert by_answer(spans) == by_answer(want_spans)


def test_mixed_plan_window_routes_per_strategy(tardis_small, query_mix):
    """One flush window holding every op/strategy still answers each
    request with its own plan (per-strategy routing)."""
    q = query_mix[0]
    plans = [
        dict(op="exact-match"),
        dict(op="knn", strategy="target-node", k=5),
        dict(op="knn", strategy="one-partition", k=5),
        dict(op="knn", strategy="multi-partitions", k=5, pth=3),
    ]
    with QueryService(
        tardis_small, max_batch=16, max_delay_ms=20.0, executor="threads",
        result_cache_size=None,
    ) as service:
        futures = [
            service.submit(QueryRequest(q, **plan)) for plan in plans
        ]
        results = [f.result(timeout=60) for f in futures]
    assert results[0].record_ids == exact_match(tardis_small, q).record_ids
    assert results[1].strategy == "target-node"
    assert results[2].strategy == "one-partition"
    assert results[3].strategy == "multi-partitions"
    want = knn_multi_partitions_access(tardis_small, q, 5, pth=3)
    assert results[3].record_ids == want.record_ids
    assert results[3].distances == want.distances


def test_drain_on_shutdown_completes_backlog(tardis_small, query_mix):
    service = QueryService(
        tardis_small, max_batch=4, max_delay_ms=50.0, executor="threads"
    ).start()
    futures = [
        service.submit(QueryRequest(q, op="knn", strategy="target-node",
                                    k=5))
        for q in query_mix
    ]
    service.stop(drain=True)
    assert all(f.done() for f in futures)
    assert all(f.exception() is None for f in futures)


def test_unclustered_index_rejected_at_construction():
    from repro.core import TardisConfig, build_tardis_index
    from repro.tsdb import random_walk

    dataset = random_walk(300, length=32, seed=3).z_normalized()
    index = build_tardis_index(
        dataset, TardisConfig(g_max_size=60, l_max_size=12),
        clustered=False,
    )
    with pytest.raises(RuntimeError, match="clustered"):
        QueryService(index, executor="serial")


def test_wrong_length_query_rejected_at_submit(tardis_small):
    with QueryService(tardis_small, executor="serial") as service:
        with pytest.raises(ValueError, match="length"):
            service.submit(QueryRequest(np.zeros(7), op="exact-match"))
