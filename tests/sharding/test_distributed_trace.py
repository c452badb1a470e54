"""Cross-shard distributed tracing and metrics federation, end to end.

One sharded request must yield exactly ONE trace: router queue-wait,
seed/scatter/gather phases, per-shard-call legs, and every shard's
execute subtree re-parented under the call that made it — orphan-free
under ``validate --trace --expect-roots serve/request`` across the
whole cluster.  Shard replies on the router path carry the capped
compact summary (never the full recursive tree) and only for
deterministically sampled traces.
"""

import json

import numpy as np
import pytest

from repro.serving import QueryRequest, ServingClient
from repro.telemetry import write_trace
from repro.telemetry.carrier import CARRIER_SCHEMA, COMPACT_SPAN_CAP
from repro.telemetry.journal import validate_journal_lines
from repro.telemetry.spans import disable_tracing, enable_tracing
from repro.telemetry.validate import main as validate_main
from repro.tsdb import random_walk


@pytest.fixture
def tracer():
    tracer = enable_tracing()
    try:
        yield tracer
    finally:
        disable_tracing()


@pytest.fixture
def query(tardis_small):
    return random_walk(
        1, length=tardis_small.series_length, seed=77
    ).z_normalized().values[0]


def _span_names(doc, depth=0):
    yield doc["name"], depth
    for child in doc.get("children", []):
        yield from _span_names(child, depth + 1)


def _walk(doc, parent=None):
    yield doc, parent
    for child in doc.get("children", []):
        yield from _walk(child, doc)


def test_one_request_one_cluster_trace(
    router_factory, tardis_small, tracer, query, tmp_path
):
    with router_factory(tardis_small, n_shards=3) as (router, _cluster):
        result = router.query(QueryRequest(
            query, op="knn", strategy="multi-partitions", k=5
        ), timeout=30)
        assert result.neighbors

        roots = tracer.roots
        assert [r.name for r in roots] == ["serve/request"]
        doc = roots[0].to_dict()
        names = {name for name, _ in _span_names(doc)}
        for want in ("serve/queue-wait", "route/execute", "route/seed",
                     "route/scatter", "route/gather", "route/shard-call",
                     "shard/request"):
            assert want in names, f"missing {want} in {sorted(names)}"

        # every shard execute segment is re-parented under the router
        # call that made it, and the whole tree shares one trace id
        shard_spans = 0
        for span, parent in _walk(doc):
            assert span["trace_id"] == doc["trace_id"]
            if span["name"] == "shard/request":
                shard_spans += 1
                assert parent["name"] == "route/shard-call"
                assert "shard_id" in span["attributes"]
        assert shard_spans >= 2  # seed + at least one scatter leg

        # the exported forest passes the cluster-wide orphan gate
        path = tmp_path / "trace.json"
        write_trace(tracer, path)
        assert validate_main(
            ["--trace", str(path), "--expect-roots", "serve/request"]
        ) == 0


def test_shard_reply_is_compact_capped_and_sampled(
    router_factory, tardis_small, tracer, query
):
    """Satellite regression: a carrier-stamped shard-knn reply never
    carries the full recursive span tree — only the capped compact
    summary, and only when the trace id samples in."""
    with router_factory(tardis_small, n_shards=2) as (router, cluster):
        host, port = cluster.addresses[0]
        pids = sorted(router.plan.hosted(0))
        doc = {
            "op": "shard-knn", "series": query.tolist(), "k": 3,
            "partitions": pids, "threshold": None, "trace": True,
            "ctx": {"schema": CARRIER_SCHEMA, "trace_id": "cafe" * 4,
                    "parent_span_id": "beef" * 4},
        }
        with ServingClient(host, port, timeout=10.0) as client:
            reply = client.call(dict(doc))["result"]
            assert reply["trace"]["compact"] is True
            assert len(reply["trace"]["spans"]) <= COMPACT_SPAN_CAP
            assert "children" not in reply["trace"]
            rows = reply["trace"]["spans"]
            assert rows[0][0] == "shard/request"

            # sampled out: same request, rate 0 → no trace payload at all
            reply = client.call(dict(doc, trace_sample=0.0))["result"]
            assert reply["trace"] is None

            # no carrier → the direct-client path still gets the full
            # tree (query-remote --trace relies on it)
            bare = {k: v for k, v in doc.items() if k != "ctx"}
            reply = client.call(bare)["result"]
            assert "compact" not in reply["trace"]
            assert reply["trace"]["name"] == "shard/request"


def test_trace_sample_zero_keeps_router_segments_orphan_free(
    router_factory, tardis_small, tracer, query
):
    with router_factory(
        tardis_small, n_shards=3, trace_sample=0.0
    ) as (router, _cluster):
        router.query(QueryRequest(
            query, op="knn", strategy="multi-partitions", k=5
        ), timeout=30)
        roots = tracer.roots
        assert [r.name for r in roots] == ["serve/request"]
        names = {n for n, _ in _span_names(roots[0].to_dict())}
        assert "route/shard-call" in names
        assert "shard/request" not in names  # sampled out, not orphaned


def test_federation_scrape_and_cluster_report(
    router_factory, tardis_small, tracer, query
):
    with router_factory(tardis_small, n_shards=3) as (router, _cluster):
        for _ in range(3):
            router.query(QueryRequest(
                query, op="knn", strategy="multi-partitions", k=5
            ), timeout=30)
        status = router.scrape_now()
        assert status == {0: True, 1: True, 2: True}
        report = router.stats()
        cluster_view = report["cluster"]
        assert cluster_view["scrapes"] == 1
        assert [row["shard_id"] for row in cluster_view["shards"]] \
            == [0, 1, 2]
        assert report["config"]["trace_sample"] == 1.0
        latency = cluster_view["shard_latency"]
        assert latency["samples"] > 0
        assert 0.0 < latency["p95_s"] < 60.0

        # second scrape drains nothing new but keeps watermarks sane
        router.scrape_now()
        assert router.stats()["cluster"]["scrapes"] == 2


def test_merged_cluster_journal_validates(
    router_factory, tardis_small, tracer, query, tmp_path
):
    with router_factory(
        tardis_small, n_shards=2,
        journal_sample=1.0, service_kwargs={"journal_sample": 1.0},
    ) as (router, _cluster):
        router.query(QueryRequest(
            query, op="knn", strategy="multi-partitions", k=5
        ), timeout=30)
        path = tmp_path / "cluster.journal.jsonl"
        router.write_cluster_journal(path)
    text = path.read_text()
    assert validate_journal_lines(text) > 0
    header = json.loads(text.splitlines()[0])
    assert "router" in header["sources"]
    assert any(s.startswith("shard-") for s in header["sources"])
    records = [json.loads(line) for line in text.splitlines()[1:]]
    assert all("source" in r for r in records)
    shard_sourced = [r for r in records if r["source"].startswith("shard-")]
    assert shard_sourced and all("shard_id" in r for r in shard_sourced)


def test_router_request_span_carries_the_caps_pricing(
    router_factory, tardis_small, heldout_queries, tracer
):
    """The router's ``route/execute`` span and the library's
    ``query/knn`` span report the same ``partitions_priced`` and
    ``cap_candidates`` for one capped multi-partitions query."""
    from repro.core import knn_multi_partitions_access

    def attributes(span_dict, name):
        return next(
            span["attributes"] for span, _parent in _walk(span_dict)
            if span["name"] == name
        )

    library = []
    for q in heldout_queries:
        tracer.reset()
        knn_multi_partitions_access(tardis_small, q, 5)
        library = attributes(tracer.roots[0].to_dict(), "query/knn")
        if "cap_candidates" in library:
            break
    assert library["partitions_priced"] < library["cap_candidates"]
    with router_factory(tardis_small, n_shards=3) as (router, _cluster):
        tracer.reset()
        router.query(QueryRequest(
            q, op="knn", strategy="multi-partitions", k=5
        ), timeout=30)
        routed = attributes(tracer.roots[0].to_dict(), "route/execute")
    assert (routed["partitions_priced"], routed["cap_candidates"]) == (
        library["partitions_priced"], library["cap_candidates"],
    )
