"""Series on the wire as float64 bytes (``series_b64`` / ``batch_b64``).

The client always sends base64 of little-endian float64; the server
decodes it bit-exactly, still accepts JSON numbers (``series`` /
``batch``), answers both spellings identically, and rejects malformed
bytes as a typed ``bad-request``.  The router encodes each request's
series once, however many shard calls it makes.
"""

import base64
import json
import socket
from contextlib import ExitStack

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import TardisConfig, build_tardis_index
from repro.serving import QueryRequest, ServingClient, serve
from repro.serving.requests import encode_series, wire_series
from repro.serving.server import _parse_request
from repro.sharding import RouterIndex, RouterService, ShardCluster
from repro.sharding import router as router_module
from repro.tsdb import random_walk

LENGTH = 32

_bits = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40)


def _as_floats(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


SPECIALS = [
    0x0000000000000000,  # +0
    0x8000000000000000,  # -0
    0x0000000000000001,  # smallest subnormal
    0x800FFFFFFFFFFFFF,  # largest negative subnormal
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
    0x7FF8000000000000,  # quiet NaN
    0x7FF0000000000001,  # signalling NaN, payload 1
    0xFFFDEADBEEF00001,  # negative NaN with a payload
]


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(bits=_bits)
    @example(bits=SPECIALS)
    def test_query_series_bit_exact(self, bits):
        sent = _as_floats(bits)
        doc = json.loads(json.dumps({"op": "knn",
                                     "series_b64": encode_series(sent)}))
        got = _parse_request(doc).series
        assert got.dtype == np.float64
        assert got.view(np.uint64).tolist() == list(bits)

    @settings(max_examples=100, deadline=None)
    @given(bits=_bits, rows=st.integers(1, 4))
    @example(bits=SPECIALS, rows=3)
    def test_batch_bit_exact(self, bits, rows):
        sent = _as_floats(bits * rows).reshape(rows, len(bits))
        doc = {"batch_b64": encode_series(sent)}
        got = wire_series(doc, "batch", row_length=len(bits))
        assert got.shape == sent.shape
        assert got.view(np.uint64).tobytes() == sent.view(np.uint64).tobytes()

    def test_json_spelling_still_parses(self):
        got = _parse_request({"op": "knn", "series": [1.5, -0.0, 2]}).series
        assert got.tolist() == [1.5, -0.0, 2.0]


@pytest.fixture(scope="module")
def dataset():
    return random_walk(400, length=LENGTH, seed=21).z_normalized()


def fresh_index(dataset):
    return build_tardis_index(
        dataset, TardisConfig(g_max_size=120, l_max_size=20, pth=3)
    )


@pytest.fixture()
def servers(dataset):
    """``servers(n)``: n started servers over n fresh builds of one
    dataset (writes mutate), result cache off so every answer is
    computed."""
    with ExitStack() as stack:

        def start(n: int) -> list:
            out = []
            for _ in range(n):
                server = serve(fresh_index(dataset), port=0,
                               max_delay_ms=1.0, result_cache_size=None)
                server.start()
                stack.callback(server.close)
                out.append(server.address)
            return out

        yield start


def raw_call(address, doc: dict) -> dict:
    with socket.create_connection(address, timeout=30) as sock:
        handle = sock.makefile("rwb")
        handle.write(json.dumps(doc).encode() + b"\n")
        handle.flush()
        return json.loads(handle.readline())


def b64(values) -> str:
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


class TestRejections:
    @pytest.mark.parametrize("doc", [
        {"op": "knn", "series_b64": "not base64!"},
        {"op": "knn", "series_b64": base64.b64encode(bytes(12)).decode()},
        {"op": "knn", "series_b64": ""},
        {"op": "knn", "series_b64": 17},
        {"op": "exact-match", "series_b64": b64(np.zeros(LENGTH)),
         "series": [0.0] * LENGTH},
        {"op": "write", "series_b64": b64(np.zeros(LENGTH)),
         "series": [0.0] * LENGTH},
        {"op": "write-batch", "batch_b64": b64(np.zeros(2 * LENGTH + 1))},
        {"op": "write-batch", "batch_b64": b64(np.zeros(2 * LENGTH)),
         "batch": [[0.0] * LENGTH] * 2},
        {"op": "knn", "series_b64": b64(np.zeros(LENGTH - 1))},
    ], ids=[
        "invalid-base64", "not-multiple-of-8", "empty", "not-a-string",
        "both-spellings",
        "write-both-spellings", "batch-not-whole-rows",
        "batch-both-spellings", "wrong-length",
    ])
    def test_typed_bad_request(self, servers, doc):
        (address,) = servers(1)
        reply = raw_call(address, doc)
        assert reply["ok"] is False
        assert reply["error"]["type"] == "bad-request", reply


class TestSpellingsAgree:
    def test_all_four_ops(self, servers, dataset):
        """One server takes JSON numbers, a twin takes bytes: every op
        answers identically, writes included."""
        as_json, as_bytes = servers(2)
        values = dataset.values
        writes = random_walk(7, length=LENGTH, seed=22).z_normalized().values
        queries = [values[3], values[250], writes[0], writes[5]]

        def both(doc_json, doc_b64):
            got = raw_call(as_json, doc_json), raw_call(as_bytes, doc_b64)
            assert got[0]["ok"] and got[1]["ok"], got
            assert got[0]["result"] == got[1]["result"]
            return got[0]["result"]

        for query in queries[:2]:
            both({"op": "knn", "series": query.tolist(), "k": 5},
                 {"op": "knn", "series_b64": b64(query), "k": 5})
            both({"op": "exact-match", "series": query.tolist()},
                 {"op": "exact-match", "series_b64": b64(query)})
        ack = both({"op": "write", "series": writes[0].tolist()},
                   {"op": "write", "series_b64": b64(writes[0])})
        assert len(ack["record_ids"]) == 1
        ack = both({"op": "write-batch", "batch": writes[1:].tolist()},
                   {"op": "write-batch", "batch_b64": b64(writes[1:])})
        assert len(ack["record_ids"]) == 6
        for query in queries:
            found = both(
                {"op": "exact-match", "series": query.tolist()},
                {"op": "exact-match", "series_b64": b64(query)},
            )
            assert found["found"]
            both({"op": "knn", "series": query.tolist(), "k": 5,
                  "strategy": "multi-partitions"},
                 {"op": "knn", "series_b64": b64(query), "k": 5,
                  "strategy": "multi-partitions"})

    def test_client_sends_bytes(self, servers, dataset, monkeypatch):
        (address,) = servers(1)
        sent = []
        with ServingClient(*address) as client:
            call = client.call
            monkeypatch.setattr(
                client, "call", lambda doc: sent.append(doc) or call(doc)
            )
            client.knn(dataset.values[0], k=3)
            client.exact_match(dataset.values[0])
            client.write(dataset.values[1] + 0.5)
            client.write_batch(dataset.values[2:4] + 0.5)
        fields = ("series", "series_b64", "batch", "batch_b64")
        assert [[k for k in doc if k in fields] for doc in sent] == [
            ["series_b64"], ["series_b64"], ["series_b64"], ["batch_b64"]]


class TestRouterEncodesOnce:
    def test_one_encoding_per_mpa_request(
        self, tardis_small, heldout_queries, monkeypatch
    ):
        """A one-call and a two-call MPA request each encode their
        series exactly once; every shard call carries that encoding."""
        encoded: list = []
        real = router_module.encode_series
        monkeypatch.setattr(
            router_module, "encode_series",
            lambda values: encoded.append(real(values)) or encoded[-1],
        )
        sent: list = []
        with ShardCluster.for_index(
            tardis_small, 3, 0, mode="threads",
            service_kwargs={"result_cache_size": None},
        ) as cluster, RouterService(
            RouterIndex.from_index(tardis_small), cluster.plan,
            cluster.addresses, result_cache_size=None,
            health_interval_s=0.0,
        ) as router:
            call_once = router._call_once
            monkeypatch.setattr(
                router, "_call_once",
                lambda shard_id, op, doc, attempt: (
                    sent.append(doc["series_b64"])
                    or call_once(shard_id, op, doc, attempt)
                ),
            )
            calls_seen = set()
            for query in heldout_queries[:20]:
                encoded.clear()
                sent.clear()
                router.submit(QueryRequest(
                    query, op="knn", strategy="multi-partitions", k=10,
                    pth=4,
                )).result(timeout=60)
                assert encoded == [real(query)]
                assert sent and all(s is encoded[0] for s in sent)
                calls_seen.add(min(len(sent), 2))
        assert calls_seen == {1, 2}
