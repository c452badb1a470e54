"""The one MPA pipeline: ``scan_partitions`` and ``merge_top_k``.

Local Multi-Partitions Access, the shard's ``shard-knn`` op and the
router's gather all run these two functions, so their contracts are
pinned here once instead of being re-proved equal per tier.
"""

import numpy as np
import pytest

from repro.core import TardisConfig, build_tardis_index
from repro.core.local_index import ScanStats
from repro.core.queries import (
    Neighbor,
    knn_multi_partitions_access,
    knn_target_node_access,
    merge_top_k,
    query_signature,
    scan_partitions,
)
from repro.faults import active_plan
from repro.tsdb import random_walk


def N(distance, record_id):
    return Neighbor(float(distance), record_id)


MERGE_CASES = {
    # equal distances across partitions → ascending record id
    "ties break by record id": (
        [[N(1.0, 9), N(2.0, 4)], [N(1.0, 3), N(2.0, 1)]], 3, (),
        [N(1.0, 3), N(1.0, 9), N(2.0, 1)],
    ),
    # the same record id from two replies (a replica answered twice)
    "duplicate record id kept once": (
        [[N(1.0, 7), N(3.0, 8)], [N(1.0, 7), N(2.0, 5)]], 3, (),
        [N(1.0, 7), N(2.0, 5), N(3.0, 8)],
    ),
    "fewer than k survivors": (
        [[N(2.0, 1)], [], [N(1.0, 2)]], 5, (),
        [N(1.0, 2), N(2.0, 1)],
    ),
    # a neighbor AT the bound may tie with an unseen missing record
    "cut is strict at the smallest missing bound": (
        [[N(1.0, 1), N(2.0, 2), N(2.5, 3)]], 3, (4.0, 2.0),
        [N(1.0, 1)],
    ),
    "cut applies after the k-truncate": (
        [[N(1.0, 1), N(2.0, 2), N(3.0, 3)]], 2, (2.5,),
        [N(1.0, 1), N(2.0, 2)],
    ),
    "unbounded missing partition keeps nothing back": (
        [[N(1.0, 1)]], 1, (np.inf,), [N(1.0, 1)],
    ),
    "empty input": ([], 3, (), []),
    "empty input, degraded": ([[], []], 3, (0.5,), []),
}


@pytest.mark.parametrize("case", MERGE_CASES)
def test_merge_top_k(case):
    tops, k, missing_bounds, want = MERGE_CASES[case]
    assert merge_top_k(tops, k, missing_bounds) == want


@pytest.fixture(scope="module")
def index():
    dataset = random_walk(600, length=48, seed=5).z_normalized()
    return build_tardis_index(
        dataset, TardisConfig(g_max_size=100, l_max_size=20, pth=4)
    )


@pytest.fixture(scope="module")
def query():
    return random_walk(1, length=48, seed=6).z_normalized().values[0]


def _scan(index, query, k, pids, **kwargs):
    signature, paa = query_signature(index, query)
    return scan_partitions(index, query, signature, paa, k, pids, **kwargs)


def test_scan_seed_then_threshold_equals_one_scan(index, query):
    """Seeding on one host and scanning the rest with the returned
    threshold — the router's two phases — is the single local scan."""
    whole = knn_multi_partitions_access(index, query, 5)
    home, *others = whole.partition_ids_loaded
    assert others, "fixture must fan out past the home partition"
    seed = _scan(index, query, 5, [home], home_pid=home)
    rest = _scan(index, query, 5, others, threshold=seed.threshold)
    assert seed.target_layer is not None and rest.target_layer is None
    assert merge_top_k(seed.tops + rest.tops, 5) == whole.neighbors
    assert seed.candidates + rest.candidates == whole.candidates_examined
    assert (seed.target_layer + 1 + seed.stats.visited
            + rest.stats.visited) == whole.nodes_visited
    assert seed.stats.pruned + rest.stats.pruned == whole.nodes_pruned


def test_scan_seed_is_target_node_access(index, query):
    """The seed step is Target Node Access on the home partition: same
    top-k, same candidate count, same target node."""
    tna = knn_target_node_access(index, query, 5)
    [home] = tna.partition_ids_loaded
    seed = _scan(index, query, 5, [home], home_pid=home)
    # What the seed scan adds to its seed step: the pruned rest of home.
    partition = index.partitions[home]
    signature, paa = query_signature(index, query)
    target = partition.target_node(signature, 5)
    rest = ScanStats()
    widened = partition.pruned_entries(
        paa, seed.threshold, index.series_length, skip=target, stats=rest
    )
    assert seed.tops[0] == tna.neighbors
    assert seed.threshold == tna.neighbors[-1].distance
    assert seed.candidates - len(widened) == tna.candidates_examined
    assert seed.target_layer == target.layer
    assert tna.nodes_visited == (
        target.layer + 1 + seed.stats.visited - rest.visited
    )


def test_scan_home_lost(index, query):
    """The seed partition will not load: nothing is scanned, and the
    reply says which of the other partitions are reachable."""
    pids = knn_multi_partitions_access(index, query, 5).partition_ids_loaded
    home = pids[0]
    plan = {
        "schema": "repro.faults/v1", "seed": 1,
        "rules": [{"kind": "partition-load-error", "partition_id": [home]}],
    }
    with active_plan(plan):
        scan = _scan(index, query, 5, pids, home_pid=home)
        local = knn_multi_partitions_access(index, query, 5)
    assert scan.home_lost
    assert scan.missing == [home]
    assert scan.loaded == pids[1:]
    assert scan.tops == [] and scan.candidates == 0
    assert scan.target_layer is None and scan.threshold == np.inf
    # ... which the local strategy turns into the empty degraded answer
    assert local.degraded and local.neighbors == []
    assert local.missing_partitions == [home]
    assert local.partition_ids_loaded == pids[1:]
