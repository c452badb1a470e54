"""Router synopses: the partition's own region bound, detached.

The cross-topology equivalence guarantee stands on one fact: the
router's MINDIST lower bound for a partition it has never loaded equals
:meth:`LocalPartition.region_bound` exactly.  Both are
:meth:`repro.core.region.RegionSynopsis.bound` over the same prefix set,
so that is what is pinned here — plus the wire round-trip that ships
synopses to a detached router.
"""

import numpy as np

from repro.core.region import RegionSynopsis
from repro.sharding import PartitionSynopsis, RouterIndex
from repro.tsdb.paa import paa_transform


def _paa(index, series):
    return paa_transform(
        np.asarray(series, dtype=np.float64), index.config.word_length
    )


class TestBoundEquality:
    def test_bound_matches_partition_for_every_partition(self, tardis_small):
        router_index = RouterIndex.from_index(tardis_small)
        for pid, partition in tardis_small.partitions.items():
            synopsis = router_index.synopses[pid]
            # one implementation of the bound, over equal (copied) inputs
            assert type(synopsis).bound is type(partition.region).bound
            assert synopsis.bound.__func__ is RegionSynopsis.bound
            assert synopsis.region_prefixes == partition.region_prefixes
            assert synopsis.region_prefixes is not partition.region_prefixes
            assert synopsis.word_length == partition.region.word_length

    def test_bound_round_trips_through_wire_form(self, tardis_small,
                                                 heldout_queries):
        router_index = RouterIndex.from_index(tardis_small)
        paa = _paa(tardis_small, heldout_queries[0])
        for pid, synopsis in router_index.synopses.items():
            thawed = PartitionSynopsis.from_dict(synopsis.to_dict())
            assert thawed.region_prefixes == synopsis.region_prefixes
            assert thawed.bound(paa, tardis_small.series_length) == \
                synopsis.bound(paa, tardis_small.series_length)

    def test_empty_synopsis_is_infinite(self):
        empty = PartitionSynopsis(
            partition_id=9, n_records=0, word_length=8, region_prefixes=(),
        )
        assert empty.bound(np.zeros(8), 64) == np.inf


class TestRouterIndex:
    def test_counts_and_config_survive_extraction(self, tardis_small):
        router_index = RouterIndex.from_index(tardis_small)
        assert router_index.n_records == sum(
            p.n_records for p in tardis_small.partitions.values()
        )
        assert router_index.series_length == tardis_small.series_length
        assert router_index.config is tardis_small.config
        assert set(router_index.synopses) == set(tardis_small.partitions)

    def test_routing_uses_the_same_global_index(self, tardis_small,
                                                heldout_queries):
        from repro.core.queries import query_signature

        router_index = RouterIndex.from_index(tardis_small)
        for query in heldout_queries[:5]:
            signature, _paa_word = query_signature(tardis_small, query)
            assert router_index.global_index.route(signature) == \
                tardis_small.global_index.route(signature)
