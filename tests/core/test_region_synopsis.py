"""Tests for the per-partition region synopsis and the fallback-routing
soundness bug it fixes.

Found by hypothesis: a record whose signature was unseen during Tardis-G
sampling gets fallback-routed into a partition whose sampled Tardis-G leaf
regions do not cover it.  Bounding that partition by those leaf regions
can then exceed the record's true distance, and exact range/kNN search
would prune a true answer.  The synopsis (coarse prefixes of the records
*actually stored*) restores soundness.
"""

import numpy as np
import pytest

from repro.core import TardisConfig, build_tardis_index, brute_force_knn
from repro.core.exact_search import knn_exact, range_query
from repro.core.local_index import REGION_PREFIX_BITS
from repro.core.queries import query_signature
from repro.tsdb import random_walk
from repro.tsdb.series import z_normalize


class TestRegionSynopsis:
    def test_every_record_covered(self, tardis_small):
        """Each stored signature's coarse prefix is in its partition's
        synopsis — the invariant the bound's soundness rests on."""
        for partition in tardis_small.partitions.values():
            bits = min(REGION_PREFIX_BITS, partition.tree.max_bits)
            per_plane = partition.tree.per_plane
            for sig, _rid, _ts in partition.all_entries():
                assert sig[: bits * per_plane] in partition.region_prefixes

    def test_synopsis_small(self, tardis_small):
        """The synopsis is metadata-sized, not data-sized."""
        for partition in tardis_small.partitions.values():
            assert len(partition.region_prefixes) <= partition.n_records
            assert len(partition.region_prefixes) < 300

    def test_region_bound_lower_bounds_all_records(self, tardis_small,
                                                   rw_small):
        rng = np.random.default_rng(0)
        for _ in range(5):
            q = z_normalize(np.cumsum(rng.standard_normal(64)))
            _sig, paa = query_signature(tardis_small, q)
            bounds = tardis_small.region_bounds(paa)
            for pid, partition in tardis_small.partitions.items():
                for _s, rid, _ts in partition.all_entries()[:20]:
                    true = float(np.linalg.norm(q - rw_small.series(rid)))
                    assert bounds[pid] <= true + 1e-7

    def test_empty_partition_bound_infinite(self, small_config):
        from repro.core.local_index import build_local_partition

        partition = build_local_partition(0, [], small_config)
        assert partition.region_bound(np.zeros(8), 64) == np.inf


    def test_growth_replaces_the_set_and_refreshes_the_bound(
        self, tardis_small
    ):
        """``add`` swaps in a grown set (readers keep a consistent one)
        and the decode cache follows: the bound over the union is the
        min of the parts' bounds."""
        from repro.core.region import RegionSynopsis

        a, b = list(tardis_small.partitions.values())[:2]
        paa = np.linspace(-1.0, 1.0, a.tree.word_length)
        grown = RegionSynopsis(a.tree.word_length, a.region_prefixes)
        before = grown.region_prefixes
        assert grown.bound(paa, 64) == a.region_bound(paa, 64)
        grown.add(before)  # nothing new: same set object, cache kept
        assert grown.region_prefixes is before
        grown.add(b.region_prefixes)
        assert grown.region_prefixes is not before
        assert before == a.region_prefixes  # the old set was not mutated
        assert grown.bound(paa, 64) == min(
            a.region_bound(paa, 64), b.region_bound(paa, 64)
        )


class TestFallbackRoutingRegression:
    """The exact hypothesis counterexample, pinned."""

    @pytest.fixture(scope="class")
    def world(self):
        dataset = random_walk(3000, length=64, seed=42).z_normalized()
        config = TardisConfig(g_max_size=300, l_max_size=30, pth=4)
        return dataset, build_tardis_index(dataset, config)

    def test_range_query_complete_at_boundary(self, world):
        dataset, index = world
        rng = np.random.default_rng(0)
        q = z_normalize(np.cumsum(rng.standard_normal(64)))
        result = range_query(index, q, 8.0)
        expected = {
            int(rid)
            for rid, row in dataset
            if float(np.linalg.norm(q - row)) <= 8.0
        }
        assert {n.record_id for n in result.neighbors} == expected
        # Record 1420 is the fallback-routed series the old Tardis-G-leaf
        # bound wrongly pruned.
        assert 1420 in expected

    def test_exact_knn_still_equals_brute_force(self, world):
        dataset, index = world
        rng = np.random.default_rng(0)
        q = z_normalize(np.cumsum(rng.standard_normal(64)))
        exact = knn_exact(index, q, 25)
        truth = brute_force_knn(dataset, q, 25)
        assert exact.record_ids == [n.record_id for n in truth]
