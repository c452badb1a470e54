"""Answers-and-accounting pin: a fixed build + query set, hashed.

One small random-walk index, 40 grouped target-node kNN queries and a
guaranteed exact-match hit.  The answer digest and the work counts are
fixed numbers: a change that alters any id, any distance beyond 6
decimals, or how much work the batch pass does fails here, whatever it
does to the clock.
"""

import hashlib
import json

from repro.core import TardisConfig, build_tardis_index, exact_match
from repro.core.batch import batch_knn_target_node
from repro.tsdb import random_walk

ANSWERS_SHA256 = (
    "d620280c744816b446007ac12704a21c5f5e0efa9b4924c44a6d15245ca3953d"
)

ACCOUNTING = {
    "records_indexed": 1200,
    "partitions": 4,
    "batch_partitions_loaded": 4,
    "candidates_examined": 3751,
    "exact_found": 1,
}


def answers_digest(answers, precision: int = 6) -> str:
    """sha256 of the answers as sorted-key JSON, floats rounded."""

    def _round(value):
        if isinstance(value, float):
            return round(value, precision)
        if isinstance(value, dict):
            return {k: _round(v) for k, v in sorted(value.items())}
        if isinstance(value, (list, tuple)):
            return [_round(v) for v in value]
        return value

    blob = json.dumps(_round(answers), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def test_answers_and_accounting_are_pinned():
    dataset = random_walk(1200, length=64, seed=42).z_normalized()
    queries = random_walk(40, length=64, seed=43).z_normalized().values
    config = TardisConfig(g_max_size=300, l_max_size=30)
    index = build_tardis_index(dataset, config)

    report = batch_knn_target_node(index, queries, k=5)
    exact = exact_match(index, dataset.values[0])

    answers = [
        {
            "ids": [n.record_id for n in r.neighbors],
            "distances": [float(n.distance) for n in r.neighbors],
        }
        for r in report.results
    ]
    assert answers_digest(answers) == ANSWERS_SHA256
    assert {
        "records_indexed": index.n_records,
        "partitions": len(index.partitions),
        "batch_partitions_loaded": report.partitions_loaded,
        "candidates_examined": sum(
            r.candidates_examined for r in report.results
        ),
        "exact_found": int(exact.found),
    } == ACCOUNTING
