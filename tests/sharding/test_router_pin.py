"""Router pin: answers, write acks and failover accounting under faults.

A threads-mode cluster of 3 shards serves the chaos suite's index
(``tests/faults/conftest.py``: 1200 random walks of length 48, seed 77)
under the chaos suite's shard-call plans
(``tests/faults/test_chaos_sharded.py``): the first six transient plans
with one replica, and one whole dead shard with no replica and with one.
Eight held-out queries run through every request kind the router
places: exact-match, target-node, one-partition and multi-partitions
kNN.  A 16-row ``write-batch`` then goes through the router while every
first ``shard/write-batch`` attempt crashes.

Pinned per plan: the answers (ids, ``repr`` distances, ``degraded``,
``missing_partitions``, or the typed error), the write ack
(``record_ids``, ``partition_ids``, ``replicas_failed``), the router's
``failover`` journal records as a sorted multiset of ``(shard_id, op,
attempt, partition_ids)`` (scatter groups run concurrently, so their
order is not stable), and the deltas of ``serving_shard_retries_total``
and ``serving_shard_requests_total``.  These plans fail shard *calls*
only, never partition loads, so a change to which replica the router
tries, how often, or what it answers under them fails here.

To recompute the pinned values after an intended change, run this file
as a script with ``PYTHONPATH=src`` and paste what it prints.
"""

import hashlib
import json

import pytest

from repro.core import TardisConfig, build_tardis_index
from repro.faults import PartialResultError, active_plan, clear_injector
from repro.serving import QueryRequest
from repro.sharding import RouterIndex, RouterService, ShardCluster
from repro.telemetry.journal import EventJournal
from repro.telemetry.metrics import get_registry
from repro.tsdb import random_walk

N_SHARDS = 3
K = 10
LENGTH = 48
CONFIG = dict(g_max_size=150, l_max_size=25, pth=4)
REQUESTS = (
    ("exact-match", None),
    ("knn", "target-node"),
    ("knn", "one-partition"),
    ("knn", "multi-partitions"),
)


def transient_plan(seed: int) -> dict:
    return {"schema": "repro.faults/v1", "seed": seed, "rules": [
        {"kind": "task-crash", "stage": "shard/*", "attempt": [1],
         "probability": 0.6},
        {"kind": "task-slow", "stage": "shard/*", "delay_ms": 0.05,
         "probability": 0.5},
    ]}


def shard_loss_plan(seed: int, shard_id: int) -> dict:
    return {"schema": "repro.faults/v1", "seed": seed, "rules": [
        {"kind": "task-crash", "stage": "shard/*", "shard_id": shard_id},
    ]}


WRITE_CRASH_RULE = {
    "kind": "task-crash", "stage": "shard/write-batch", "attempt": [1],
}

#: name -> (replication, plan)
PLANS = {
    **{
        f"transient-{seed}": (1, transient_plan(seed)) for seed in range(6)
    },
    **{
        f"loss-{dead}-R{replication}": (
            replication, shard_loss_plan(dead, dead)
        )
        for replication in (0, 1)
        for dead in range(N_SHARDS)
    },
}

#: name -> (answers sha256, failovers sha256, retries, shard calls)
PINNED = {
    "loss-0-R0": (
        "ea0e8b678e7c9c68d77de21beb7bafda8c16cb8dab81977c0881f57919d2ad1b",
        "ce1531a5c219207e6cce6851be2c80036c4e4b6e11d72112ead875750a195840",
        71, 120,
    ),
    "loss-0-R1": (
        "2381cc37b813a05477b85eadfeac3b57a1cbef0b88434db8d820effba28322b4",
        "02ceaa989160ae4d17cc98b5de809caefe1a53419412e37821a8c54a48ed3f3b",
        29, 82,
    ),
    "loss-1-R0": (
        "bb12391f5c2713fc93bf0e4a12d30da608a262cc7300c54be034ae422f72e073",
        "f9a27781c357fdc63dd9742065a2b35ed7599bae0c4259a14df6bb89fab36ee1",
        43, 89,
    ),
    "loss-1-R1": (
        "00248a72660f0552659e4cecfb096221f28a0e832d24e04482391c49ed755f79",
        "ad128dc668129f7893e5fa6209a1b364b7fad5038f74fed1f80c2854d651aa1b",
        29, 84,
    ),
    "loss-2-R0": (
        "bf6315009c18392b0471432029eeefed4beca2da6425d1d5933a06637658b197",
        "97f0a1766370b6afbd478958be60cc612ff8ad5df249b8f50064e532173af9c8",
        42, 89,
    ),
    "loss-2-R1": (
        "a591d795a642696b9abaad37e060e162c4622a597986d1e200ec24a39d9f0ab5",
        "9e4b413b43abdef387b0b2bcedc2a845c66e08989ff4b87a064ccb7872bc8405",
        25, 80,
    ),
    "transient-0": (
        "c8c64cb40ad8aa264343043214bda5749f00970bfc07f7be5a7604957ec1305f",
        "9cac3f7be8a39292404983dac0945d738d595df3b8984f6118a7511c116aa310",
        40, 94,
    ),
    "transient-1": (
        "c8c64cb40ad8aa264343043214bda5749f00970bfc07f7be5a7604957ec1305f",
        "3bcbb3dffc50bcc05ce07ba45ddc723d932d5fbe2e5d89aeb4506522f9b6f030",
        42, 96,
    ),
    "transient-2": (
        "c8c64cb40ad8aa264343043214bda5749f00970bfc07f7be5a7604957ec1305f",
        "81046d9d0de62aef396f1a0e9286ec7d3713829772f02cd7f35ee7a203e0e795",
        35, 90,
    ),
    "transient-3": (
        "c8c64cb40ad8aa264343043214bda5749f00970bfc07f7be5a7604957ec1305f",
        "b5bb3a293c73e279f1c207f7d50f903e2afe4d39e75a2bb2257fc80e1010effb",
        38, 92,
    ),
    "transient-4": (
        "c8c64cb40ad8aa264343043214bda5749f00970bfc07f7be5a7604957ec1305f",
        "53f492516521a15116f5f1a064f7468d7041e8bf0e2a3cf764fd2ada901c7310",
        35, 88,
    ),
    "transient-5": (
        "c8c64cb40ad8aa264343043214bda5749f00970bfc07f7be5a7604957ec1305f",
        "5a84eebad90cc2f274096529fcdd8ebacd09e5798d26d677fcfaa3ac4c83c5f3",
        44, 99,
    ),
}


def _dataset():
    return random_walk(1200, length=LENGTH, seed=77).z_normalized()


def _queries():
    return random_walk(8, length=LENGTH, seed=88).z_normalized().values


def _writes():
    return random_walk(16, length=LENGTH, seed=89).z_normalized().values


def _counter(name: str) -> float:
    metric = get_registry().get(name)
    return 0.0 if metric is None else metric.value


def _answer(router, request):
    try:
        result = router.query(request, timeout=60)
    except PartialResultError as exc:
        return ["partial-result", list(exc.missing_partitions)]
    return [
        result.record_ids,
        [repr(float(d)) for d in getattr(result, "distances", [])],
        bool(getattr(result, "degraded", False)),
        list(getattr(result, "missing_partitions", [])),
    ]


def _write(router):
    try:
        ack = router._op_write(
            {"op": "write-batch", "batch": _writes().tolist()}
        )
    except RuntimeError as exc:
        return ["error", type(exc).__name__]
    return [
        ack["record_ids"], ack["partition_ids"],
        ack.get("replicas_failed", []),
    ]


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def run_plan(name: str) -> tuple:
    replication, plan = PLANS[name]
    # Writes change the index, so every plan starts from a fresh build.
    index = build_tardis_index(_dataset(), TardisConfig(**CONFIG))
    journal = EventJournal()
    retries = _counter("serving_shard_retries_total")
    calls = _counter("serving_shard_requests_total")
    write_plan = dict(plan, rules=plan["rules"] + [WRITE_CRASH_RULE])
    with ShardCluster.for_index(
        index, N_SHARDS, replication, mode="threads",
        service_kwargs={"result_cache_size": None, "max_delay_ms": 1.0},
    ) as cluster:
        with RouterService(
            RouterIndex.from_index(index), cluster.plan, cluster.addresses,
            result_cache_size=None, health_interval_s=0.0,
            call_timeout_s=5.0, journal=journal,
        ) as router:
            with active_plan(plan):
                answers = [
                    _answer(router, QueryRequest(
                        q, op=op, strategy=strategy or "target-node", k=K,
                    ))
                    for q in _queries()
                    for op, strategy in REQUESTS
                ]
            with active_plan(write_plan):
                answers.append(_write(router))
    clear_injector()
    failovers = sorted(
        (r["shard_id"], r["op"], r["attempt"], r.get("partition_ids", []))
        for r in journal.snapshot() if r.get("kind") == "failover"
    )
    return (
        _sha(answers),
        _sha(failovers),
        int(_counter("serving_shard_retries_total") - retries),
        int(_counter("serving_shard_requests_total") - calls),
    )


@pytest.mark.parametrize("name", sorted(PLANS))
def test_router_is_pinned(name):
    assert run_plan(name) == PINNED[name]


if __name__ == "__main__":
    for plan_name in sorted(PLANS):
        answers, failovers, n_retries, n_calls = run_plan(plan_name)
        print(f'    "{plan_name}": (\n        "{answers}",\n'
              f'        "{failovers}",\n        {n_retries}, {n_calls},\n    ),')
