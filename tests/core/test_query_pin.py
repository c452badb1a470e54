"""Query pin: exact answers and the shape of every query's ledger.

A small random-walk index (seeds 97 and 108) answers the same queries
through every library entry point: exact match with and without the
Bloom filter (a stored row and an absent series), Target Node, One
Partition and Multi-Partitions Access, exact kNN, range and the batch
target-node pass.  Pinned, as sha256 digests:

* every answer's record ids and the ``repr`` of every distance, so a
  one-ulp drift in the distance kernel fails here (``test_answers_pin``
  rounds to 6 decimals);
* every query ledger's stage labels in order, with each stage's
  ``tasks`` and its analytic ``io_s`` / ``network_s`` (the batch
  report's own stage folds measured CPU into ``io_s``, so only its
  labels and tasks are pinned).

Each ledger's clock must also equal the sum of its stages' ``wall_s``.
CPU and wall seconds are measured, so they are not pinned.
"""

import hashlib
import json

import pytest

from repro.core import (
    TardisConfig,
    build_tardis_index,
    exact_match,
    knn_exact,
    knn_multi_partitions_access,
    knn_one_partition_access,
    knn_target_node_access,
    range_query,
)
from repro.core.batch import batch_knn_target_node
from repro.tsdb import random_walk

CONFIG = TardisConfig(g_max_size=100, l_max_size=20, pth=4)
LENGTH = 64
N_SERIES = 1500
N_QUERIES = 8
K = 5
RADIUS = 6.0

ANSWERS_SHA256 = {
    97: "511d39585c42ee792dfc1f4ced353af2f6f2550e3a25609004c7aa820e700b70",
    108: "ac36c22fe0319f7055b6cac9e83b2b961313fe4b545b6476e7aa3d4ee64da5dc",
}

LEDGERS_SHA256 = {
    97: "bbdb9a9509e3b2f35e69d625377dd0de92482173cd66a74e202138144c1e5934",
    108: "11709d2b98d933dae81c9c6f675cbc4db3e6555828fc78916924e61bdb9cb393",
}


def digest(value) -> str:
    blob = json.dumps(value, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def knn_answer(result) -> list:
    return [result.record_ids, [repr(d) for d in result.distances]]


def ledger_shape(ledger, analytic: bool = True) -> list:
    if not analytic:
        return [[label, s.tasks] for label, s in ledger.stages.items()]
    return [
        [label, s.tasks, repr(s.io_s), repr(s.network_s)]
        for label, s in ledger.stages.items()
    ]


def run_queries(seed: int):
    dataset = random_walk(N_SERIES, length=LENGTH, seed=seed).z_normalized()
    queries = random_walk(
        N_QUERIES, length=LENGTH, seed=seed + 1
    ).z_normalized().values
    index = build_tardis_index(dataset, CONFIG)
    results = {}
    for use_bloom in (True, False):
        name = "exact-bloom" if use_bloom else "exact-nobloom"
        results[name] = [
            exact_match(index, series, use_bloom=use_bloom)
            for series in (dataset.values[7], queries[0])
        ]
    for name, fn in (
        ("tna", knn_target_node_access),
        ("opa", knn_one_partition_access),
        ("mpa", knn_multi_partitions_access),
        ("knn-exact", knn_exact),
    ):
        results[name] = [fn(index, q, K) for q in queries]
    results["range"] = [range_query(index, q, RADIUS) for q in queries]
    batch = batch_knn_target_node(index, queries, K)
    results["batch-tna"] = batch.results
    answers = {
        name: [
            sorted(r.record_ids) if name.startswith("exact")
            else knn_answer(r)
            for r in rs
        ]
        for name, rs in results.items()
    }
    ledgers = {
        name: [ledger_shape(r.ledger) for r in rs]
        for name, rs in results.items()
    }
    ledgers["batch-report"] = ledger_shape(batch.ledger, analytic=False)
    every_ledger = [r.ledger for rs in results.values() for r in rs]
    return answers, ledgers, every_ledger + [batch.ledger]


@pytest.fixture(scope="module", params=[97, 108])
def pinned_run(request):
    return request.param, run_queries(request.param)


def test_answers_are_pinned(pinned_run):
    seed, (answers, _ledgers, _all) = pinned_run
    assert any(ids for ids, _distances in answers["range"])
    assert digest(answers) == ANSWERS_SHA256[seed]


def test_ledger_shapes_are_pinned(pinned_run):
    seed, (_answers, ledgers, _all) = pinned_run
    assert digest(ledgers) == LEDGERS_SHA256[seed]


def test_clock_is_the_sum_of_stage_wall_times(pinned_run):
    _seed, (_answers, _ledgers, every_ledger) = pinned_run
    for ledger in every_ledger:
        total = sum(s.wall_s for s in ledger.stages.values())
        assert ledger.clock_s == pytest.approx(total, rel=1e-12, abs=1e-15)
