"""``rows_scored`` crosses the sharded tier.

It is the one count that depends on the host: a forwarded strategy runs
on one shard over the single-process code path, so it equals the direct
call's, while distributed Multi-Partitions Access refines per shard and
the router sums the replies' ``scored`` — never above the refined rows,
which stay equal to the direct call's.
"""

import numpy as np
import pytest

from repro.core.queries import (
    knn_multi_partitions_access,
    knn_one_partition_access,
    knn_target_node_access,
)
from repro.serving import QueryRequest

DIRECT = {
    "target-node": lambda index, q: knn_target_node_access(index, q, 10),
    "one-partition": lambda index, q: knn_one_partition_access(index, q, 10),
    "multi-partitions": lambda index, q: knn_multi_partitions_access(
        index, q, 10, pth=3
    ),
}


@pytest.fixture(scope="module")
def queries(rw_small, heldout_queries):
    return np.vstack([rw_small.values[:4], heldout_queries[:6]])


@pytest.mark.parametrize("strategy", sorted(DIRECT))
def test_router_reports_rows_scored(
    tardis_small, router_factory, queries, strategy
):
    with router_factory(tardis_small, n_shards=3) as (router, _cluster):
        served = [
            router.submit(QueryRequest(
                q, op="knn", strategy=strategy, k=10,
                pth=3 if strategy == "multi-partitions" else None,
            )).result(timeout=60)
            for q in queries
        ]
    for query, got in zip(queries, served):
        want = DIRECT[strategy](tardis_small, query)
        assert got.rows_refined == want.rows_refined
        assert 0 < got.rows_scored <= got.rows_refined
        if strategy != "multi-partitions":
            assert got.rows_scored == want.rows_scored
        if strategy == "target-node":
            assert got.rows_scored == got.rows_refined
