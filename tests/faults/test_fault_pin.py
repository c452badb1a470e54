"""Fault-plane pin: one plan that fires at every retrying fault site.

A small random-walk index (seeds 97 and 108) is built, queried and then
served under one plan whose rules reach each site that retries an
injected fault: engine tasks (``local/*`` crashes, ``global/*``
stragglers), storage block reads, partition loads (``query/load``
errors and stragglers), serving groups (``serve/*``) and serving
appends (``ingest/append``).  Every rule confines failures to early
attempts, so each run recovers and every answer is the fault-free one.

Pinned: the sha256 of the injector's journal, the injected count per
kind, the build ledger's ``(tasks, io_s, network_s)`` per stage, what
each query's ledger was charged for its partition loads' retries, and
a digest of the answers.  A multi-partitions query times each load
on its own and folds those times into its
``query/load partitions`` stage, so its retry charge is that stage's
``(tasks, wall_s, io_s)``; an exact-match query charges its
``query/load partition (retry)`` stage ``(tasks, wall_s)`` directly.
A change to which faults fire, to how many attempts they cost, or to
what a retry charges to the simulated clock fails here.  CPU seconds
are measured, so they are not pinned; the retry seconds are backoff
pauses with hashed jitter, so they are exact.
"""

import hashlib
import json

import pytest

from repro.core import TardisConfig, build_tardis_index, exact_match
from repro.core.queries import knn_multi_partitions_access
from repro.faults import active_plan
from repro.serving import QueryRequest, QueryService
from repro.tsdb import random_walk

CONFIG = TardisConfig(g_max_size=100, l_max_size=20)
LENGTH = 64
N_SERIES = 1500
N_QUERIES = 12
K = 5
LOADS_STAGE = "query/load partitions"
RETRY_STAGE = "query/load partition (retry)"


def plan(seed: int) -> dict:
    return {"schema": "repro.faults/v1", "seed": seed, "rules": [
        {"kind": "task-crash", "stage": "local/*", "attempt": [1],
         "probability": 0.3},
        {"kind": "task-slow", "stage": "global/*", "delay_ms": 2.0,
         "probability": 0.8},
        {"kind": "storage-read-error", "attempt": [1, 2],
         "probability": 0.3},
        {"kind": "partition-load-error", "attempt": [1, 2],
         "probability": 0.3},
        {"kind": "task-slow", "stage": "query/load", "delay_ms": 1.0,
         "probability": 0.2},
        {"kind": "task-crash", "stage": "serve/*", "attempt": [1, 2],
         "probability": 0.5},
        {"kind": "task-crash", "stage": "ingest/append", "attempt": [1],
         "probability": 0.6},
    ]}


JOURNAL_SHA256 = {
    97: (
        "3136ceb34c43d561a5bc64819ae41dc08f302d53778afcc0186e9dcd23556eae"
    ),
    108: (
        "bb2a46a8a40c10c9eec54e8df7f14b5d5dae3715f7f1611bd071ddc4f082fea5"
    ),
}
BY_KIND = {
    97: {
        "partition-load-error": 75,
        "storage-read-error": 5,
        "task-crash": 26,
        "task-slow": 44,
    },
    108: {
        "partition-load-error": 81,
        "storage-read-error": 6,
        "task-crash": 25,
        "task-slow": 48,
    },
}
#: (label, tasks, io_s, network_s), in execution order.
BUILD_LEDGER = {
    97: [
        ("global/sample+convert", 4, 0.001102023654513889, 0.0),
        ("global/aggregate/combine", 2, 0.0, 0.0),
        ("global/aggregate/shuffle", 2, 0.0, 1.850128173828125e-06),
        ("global/aggregate/merge", 2, 0.0, 0.0),
        ("global/aggregate", 2, 0.0, 3.814697265625e-06),
        ("global/node statistic", 1, 0.0, 0.0),
        ("global/build index tree", 1, 0.0, 0.0),
        ("global/partition assignment", 1, 0.0, 0.0),
        ("local/read data", 15, 0.004959106445312499, 0.0),
        ("local/convert data", 23, 0.0, 0.0),
        ("local/broadcast Tardis-G", 1, 0.0, 5.340576171875e-08),
        ("local/shuffle", 15, 0.0, 0.0003744277954101563),
        ("local/build index", 20, 0.0, 0.0),
        ("local/dump bloom index", 0, 1.4360745747884115e-05, 0.0),
    ],
    108: [
        ("global/sample+convert", 4, 0.0005510118272569445, 0.0),
        ("global/aggregate/combine", 2, 0.0, 0.0),
        ("global/aggregate/shuffle", 2, 0.0, 1.8310546875e-06),
        ("global/aggregate/merge", 2, 0.0, 0.0),
        ("global/aggregate", 2, 0.0, 3.814697265625e-06),
        ("global/node statistic", 1, 0.0, 0.0),
        ("global/build index tree", 1, 0.0, 0.0),
        ("global/partition assignment", 1, 0.0, 0.0),
        ("local/read data", 15, 0.005785624186197916, 0.0),
        ("local/convert data", 19, 0.0, 0.0),
        ("local/broadcast Tardis-G", 1, 0.0, 5.340576171875e-08),
        ("local/shuffle", 15, 0.0, 0.0003698616027832031),
        ("local/build index", 24, 0.0, 0.0),
        ("local/dump bloom index", 0, 1.4360745747884115e-05, 0.0),
    ],
}
#: One (tasks, wall_s, io_s) of LOADS_STAGE per multi-partitions query.
MPA_LOADS = {
    97: [
        (8, 0.003578092733202293, 0.01172449581373189),
        (8, 0.008938571001025693, 0.018301055193543372),
        (8, 0.0012797444661458333, 0.004325354682074652),
        (8, 0.003212500420804938, 0.009792443466838753),
        (8, 0.0026531135658414287, 0.008791623470673346),
        (8, 0.0031704581748772482, 0.012282796320478948),
        (8, 0.0025702786485903295, 0.010874302191414128),
        (8, 0.00277324346708092, 0.007319144180630165),
        (8, 0.0032758830398263807, 0.010141032716252912),
        (8, 0.008064470115740833, 0.014515186536764035),
        (8, 0.0023387592067355993, 0.0075382115520724125),
        (8, 0.002840355609019718, 0.008183192110785269),
    ],
    108: [
        (2, 0.0072913489973390425, 0.007601399113984008),
        (2, 0.006870296656886685, 0.007150041123032518),
        (8, 0.008848784829019695, 0.01861911288817408),
        (2, 0.0063650941497974435, 0.006675144266442409),
        (8, 0.006316118603487464, 0.016379350451022942),
        (8, 0.006614752746314923, 0.011954773947151415),
        (8, 0.006330701126311483, 0.016185128551566348),
        (8, 0.002386746491032839, 0.005491548092866606),
        (8, 0.002864540876564384, 0.009213183716932003),
        (8, 0.0024939610959448548, 0.0045593017738419905),
        (8, 0.0028257745727628056, 0.008460280199513132),
        (8, 0.008195569230710865, 0.022631961524376555),
    ],
}
#: One (tasks, wall_s) of RETRY_STAGE per exact-match query.
EXACT_RETRIES = {
    97: [
        (1, 0.0014402772995007911),
        (1, 0.0014445877377706996),
        (0, 0.0),
        (2, 0.004495164333685868),
        (0, 0.0),
        (0, 0.0),
        (0, 0.0),
        (0, 0.0),
        (1, 0.0012307367503873179),
        (2, 0.0031616588178291247),
        (0, 0.0),
        (0, 0.0),
        (0, 0.0),
        (1, 0.0011422522055997777),
        (0, 0.0),
        (0, 0.0),
        (0, 0.0),
    ],
    108: [
        (0, 0.0),
        (0, 0.0),
        (1, 0.001277167612563211),
        (2, 0.004406603183028618),
        (0, 0.0),
        (0, 0.0),
        (0, 0.0),
        (0, 0.0),
        (0, 0.0),
        (0, 0.0),
        (0, 0.0),
        (0, 0.0),
        (2, 0.003944744756517892),
        (0, 0.0),
        (1, 0.0012802644443820333),
        (1, 0.001380983463102758),
        (1, 0.00104731217330682),
    ],
}
ANSWERS_SHA256 = {
    97: (
        "296997c6e745db2280029d82ab8e5954fc68cc5b5098de8d98d18620e8e17d97"
    ),
    108: (
        "501e1529fcc70a49137ecb1901c108d59eb5f9e5e58f50de57cbb7e25b565748"
    ),
}


def answers_digest(answers) -> str:
    """sha256 of the answers as sorted-key JSON, floats to 6 decimals."""

    def _round(value):
        if isinstance(value, float):
            return round(value, 6)
        if isinstance(value, (list, tuple)):
            return [_round(v) for v in value]
        return value

    blob = json.dumps(_round(answers), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def run_plan(seed: int) -> dict:
    dataset = random_walk(N_SERIES, length=LENGTH, seed=seed).z_normalized()
    queries = random_walk(
        N_QUERIES, length=LENGTH, seed=seed + 1
    ).z_normalized().values
    writes = random_walk(24, length=LENGTH, seed=seed + 2).z_normalized()
    with active_plan(plan(seed)) as injector:
        index = build_tardis_index(dataset, CONFIG)
        knn = [knn_multi_partitions_access(index, q, K) for q in queries]
        exact = [
            exact_match(index, dataset.values[row])
            for row in range(0, N_SERIES, N_SERIES // 16)
        ]
        with QueryService(index, result_cache_size=None) as service:
            acks = [
                service.write(writes.values[i:i + 3]).record_ids
                for i in range(0, len(writes), 3)
            ]
            served = [
                service.query(QueryRequest(
                    q, op="knn", strategy="multi-partitions", k=K
                )).record_ids
                for q in queries
            ] + [
                service.query(QueryRequest(
                    writes.values[i], op="exact-match"
                )).record_ids
                for i in range(0, len(writes), 5)
            ]
        journal = injector.journal_lines()
        by_kind = injector.stats()["by_kind"]
    loads = [r.ledger.stage(LOADS_STAGE) for r in knn]
    retries = [r.ledger.stage(RETRY_STAGE) for r in exact]
    answers = {
        "knn": [
            [r.record_ids, [float(n.distance) for n in r.neighbors],
             r.degraded]
            for r in knn
        ],
        "exact": [sorted(r.record_ids) for r in exact],
        "acks": acks,
        "served": [sorted(ids) for ids in served],
    }
    return {
        "journal": hashlib.sha256(journal.encode()).hexdigest(),
        "by_kind": by_kind,
        "ledger": [
            (label, stats.tasks, stats.io_s, stats.network_s)
            for label, stats in index.construction_ledger.stages.items()
        ],
        "mpa_loads": [(s.tasks, s.wall_s, s.io_s) for s in loads],
        "exact_retries": [(s.tasks, s.wall_s) for s in retries],
        "answers": answers_digest(answers),
    }


@pytest.mark.parametrize("seed", [97, 108])
def test_fault_plane_is_pinned(seed):
    got = run_plan(seed)
    assert got["by_kind"] == BY_KIND[seed]
    assert got["journal"] == JOURNAL_SHA256[seed]
    assert got["ledger"] == BUILD_LEDGER[seed]
    assert got["mpa_loads"] == MPA_LOADS[seed]
    assert got["exact_retries"] == EXACT_RETRIES[seed]
    assert got["answers"] == ANSWERS_SHA256[seed]

