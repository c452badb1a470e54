"""The ``pth`` cap priced coarse to fine keeps what full pricing keeps.

:meth:`repro.core.region.RegionMatrix.cap` prices every partition's
one-bit synopsis, then exact bounds only until no unpriced partition can
make the cut.  The reference here prices every candidate's exact bound
(:meth:`RegionSynopsis.bound`, one synopsis at a time) and sorts by
``(bound, pid)``: the two must keep the same ids in the same order, on
both tiers (:class:`TardisIndex` and the router's :class:`RouterIndex`).
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queries import (
    query_signature,
    select_mpa_partitions,
    sibling_bound_lookup,
)
from repro.sharding import RouterIndex
from repro.sharding.synopsis import PartitionSynopsis
from repro.telemetry.perf import KERNELS

WORD = 8
LENGTH = 64
HEX = "0123456789abcdef"


def full_pricing(synopsis_of, query_paa, partition_ids, keep):
    bounds = {
        pid: synopsis_of(pid).bound(query_paa, LENGTH)
        for pid in partition_ids
    }
    return sorted(partition_ids, key=lambda pid: (bounds[pid], pid))[:keep]


def router_index(prefix_sets: dict) -> RouterIndex:
    """A router view over synthetic synopses: all the cap reads."""
    return RouterIndex(None, None, LENGTH, {
        pid: PartitionSynopsis(pid, len(prefixes), WORD, prefixes)
        for pid, prefixes in prefix_sets.items()
    })


@st.composite
def synopses_and_query(draw):
    """Random synopses at one or two bits, some empty and some equal to
    another (so bounds tie and the pid decides), a random PAA word, the
    candidate ids in a random order and how many to keep."""
    bits = draw(st.sampled_from([1, 2]))
    prefix = st.text(HEX, min_size=bits * WORD // 4, max_size=bits * WORD // 4)
    pool = draw(st.lists(st.sets(prefix, max_size=5), min_size=1, max_size=4))
    n = draw(st.integers(1, 24))
    pids = draw(st.lists(
        st.integers(0, 60), min_size=n, max_size=n, unique=True,
    ))
    prefix_sets = {
        pid: draw(st.sampled_from(pool)) for pid in pids
    }
    paa = np.array(draw(st.lists(
        st.floats(-3.0, 3.0, allow_nan=False), min_size=WORD, max_size=WORD,
    )))
    candidates = draw(st.permutations(pids))
    candidates = candidates[: draw(st.integers(0, len(candidates)))]
    keep = draw(st.integers(0, len(candidates) + 2))
    return prefix_sets, paa, candidates, keep


@given(synopses_and_query())
@settings(max_examples=300, deadline=None)
def test_cap_keeps_what_full_pricing_keeps(case):
    """Ties by pid, empty synopses (+inf), every keep from 0 to past the
    list, and one-bit synopses, where the coarse level is the exact one."""
    prefix_sets, paa, candidates, keep = case
    index = router_index(prefix_sets)
    kept, priced = index.region_matrix().cap(paa, LENGTH, candidates, keep)
    want = full_pricing(index.synopses.__getitem__, paa, candidates, keep)
    assert kept == want
    assert priced <= len(candidates)
    assert priced >= min(keep, len(candidates))


def grow_and_compare(index, synopsis_of, grow, queries, pth, growth):
    """Query, grow one synopsis, query again: the per-pid callable
    (``perf/layers.py``'s form) and the coarse-to-fine lookup select the
    same list every time — so the version counter saw every growth."""
    for (pid_at, prefixes), query in zip(growth, queries):
        signature, paa = query_signature(index, query)
        want = select_mpa_partitions(
            index.global_index, signature, pth,
            lambda pid: synopsis_of(pid).bound(paa, index.series_length),
        )
        got = select_mpa_partitions(
            index.global_index, signature, pth,
            sibling_bound_lookup(index, signature, paa),
        )
        assert got == want
        held = index.region_matrix()
        pids = sorted(index.global_index.sibling_partition_ids(signature))
        target = pids[pid_at % len(pids)]
        before = synopsis_of(target).region_prefixes
        grow(target, prefixes)
        if synopsis_of(target).region_prefixes is not before:
            assert index.region_matrix() is not held


growth_steps = st.lists(
    st.tuples(
        st.integers(0, 50),
        st.sets(st.text(HEX, min_size=4, max_size=4), min_size=1, max_size=3),
    ),
    min_size=1, max_size=8,
)


@given(growth=growth_steps, pth=st.sampled_from([1, 2, 4, 100]))
@settings(max_examples=15, deadline=None)
def test_library_cap_follows_add(tardis_small, heldout_queries, growth, pth):
    index = copy.deepcopy(tardis_small)
    grow_and_compare(
        index, lambda pid: index.partitions[pid].region,
        lambda pid, prefixes: index.partitions[pid].region.add(prefixes),
        heldout_queries, pth, growth,
    )


@given(growth=growth_steps, pth=st.sampled_from([1, 2, 4, 100]))
@settings(max_examples=15, deadline=None)
def test_router_cap_follows_absorb(tardis_small, heldout_queries, growth, pth):
    index = RouterIndex.from_index(tardis_small)
    grow_and_compare(
        index, index.synopses.__getitem__,
        lambda pid, prefixes: index.synopses[pid].absorb(1, prefixes),
        heldout_queries, pth, growth,
    )


def test_a_matrix_stays_current_until_a_region_changes(tardis_small):
    index = RouterIndex.from_index(tardis_small)
    held = index.region_matrix()
    assert index.region_matrix() is held
    some = next(iter(index.synopses.values()))
    some.absorb(3, some.region_prefixes)  # nothing new: still current
    assert index.region_matrix() is held


class TestPricingCount:
    """Counted with the ``mindist`` kernel's elements (rows × w)."""

    @staticmethod
    def select(index, query):
        """``(sibling list with home, bounds, elements priced, elements
        of the list's exact rows)``."""
        signature, paa = query_signature(index, query)
        siblings = set(index.global_index.sibling_partition_ids(signature))
        siblings.add(index.global_index.route(signature))
        bounds = sibling_bound_lookup(index, signature, paa)
        KERNELS.enable(reset=True)
        try:
            select_mpa_partitions(
                index.global_index, signature, index.config.pth, bounds,
            )
        finally:
            KERNELS.disable()
        elements = KERNELS.totals().get("mindist", {}).get("elements", 0)
        full = sum(
            len(index.partitions[pid].region.table_rows()[1])
            for pid in siblings
        ) * index.config.word_length
        return siblings, bounds, elements, full

    def test_a_capped_query_prices_fewer_rows_than_its_siblings_hold(
        self, tardis_small, heldout_queries
    ):
        outcomes = [
            self.select(tardis_small, q) for q in heldout_queries
        ]
        capped = [
            (bounds, elements, full)
            for siblings, bounds, elements, full in outcomes
            if len(siblings) > tardis_small.config.pth
        ]
        assert capped, "fixture must cap some query"
        assert all(bounds.candidates for bounds, _e, _f in capped)
        assert any(
            bounds.priced < bounds.candidates and elements < full
            for bounds, elements, full in capped
        )

    def test_a_list_within_pth_prices_nothing(
        self, tardis_small, heldout_queries
    ):
        within = [
            (bounds, elements)
            for siblings, bounds, elements, _full in (
                self.select(tardis_small, q) for q in heldout_queries
            )
            if len(siblings) <= tardis_small.config.pth
        ]
        assert within, "fixture must have a query within pth"
        for bounds, elements in within:
            assert (bounds.priced, bounds.candidates, elements) == (0, 0, 0)


def test_an_exact_tie_at_the_next_coarse_bound_is_priced():
    """The stop test is strict.  Partition 1's one-bit bound is below
    its exact one; partition 0's one-bit bound equals its exact one and
    ties partition 1's exact bound.  Partition 1 is priced first, and
    stopping at ``<=`` would keep it over the smaller id."""
    edge = 0.6744897501960817  # the 2-bit breakpoint
    paa = np.array([2.0, 2.0 + edge, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
    # 2-bit symbols per segment: pid 1 [0, 3, 2, ...], pid 0 [3, 1, 2, ...];
    # plane 0 carries each symbol's high bit, plane 1 its low bit.
    index = router_index({1: {"7f40"}, 0: {"bfc0"}})
    bounds = {pid: s.bound(paa, LENGTH) for pid, s in index.synopses.items()}
    assert bounds[0] == bounds[1]
    kept, priced = index.region_matrix().cap(paa, LENGTH, [1, 0], 1)
    assert (kept, priced) == ([0], 2)
