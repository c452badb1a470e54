"""The region bound: a sound MINDIST lower bound for a whole partition.

A partition's *region synopsis* is the set of distinct coarse
(:data:`~repro.core.local_index.REGION_PREFIX_BITS`-level) signature
prefixes of the records it actually stores — including records
fallback-routed into it because their signature was unseen during
Tardis-G sampling, for which the sampled Tardis-G leaf regions alone are
NOT a sound pruning bound (see EXPERIMENTS.md methodology notes).  The
minimum MINDIST from a query's PAA word to those regions lower-bounds
the distance to ANY stored record, without touching the data.

:class:`RegionSynopsis` is the only implementation of that bound.
:attr:`LocalPartition.region <repro.core.local_index.LocalPartition>`
is one; the router's per-partition synopsis
(:class:`repro.sharding.synopsis.PartitionSynopsis`) is one with a
partition id, a record count and a wire form added — so the ``pth``
fan-out cap and the degraded-answer cut compute the same float on every
tier.
"""

from __future__ import annotations

import numpy as np

from ..tsdb.distance import mindist_paa_to_words
from .isaxt import batch_decode_signatures

__all__ = ["RegionSynopsis"]


class RegionSynopsis:
    """Distinct coarse signature prefixes of one partition's records."""

    __slots__ = ("word_length", "region_prefixes", "_decoded")

    def __init__(self, word_length: int, region_prefixes=()):
        self.word_length = int(word_length)
        #: Replaced, never mutated, on growth: a concurrent :meth:`bound`
        #: reads one consistent set, and the decode cache keys on it.
        self.region_prefixes = set(region_prefixes)
        self._decoded: tuple | None = None

    def add(self, prefixes) -> None:
        """Grow the synopsis (a grown region set can only *shrink* the
        bound, so bounds computed earlier stay sound)."""
        new = set(prefixes) - self.region_prefixes
        if new:
            self.region_prefixes = self.region_prefixes | new

    def bound(self, query_paa: np.ndarray, series_length: int) -> float:
        """Sound lower bound on the distance from the query to ANY
        record in the partition (min MINDIST over the synopsis regions)."""
        prefixes = self.region_prefixes
        if not prefixes:
            return float(np.inf)
        cache = self._decoded
        if cache is None or cache[0] is not prefixes:
            symbols, bits = batch_decode_signatures(
                np.asarray(sorted(prefixes)), self.word_length
            )
            cache = self._decoded = (prefixes, symbols, bits)
        bounds = mindist_paa_to_words(
            query_paa, cache[1], cache[2], series_length
        )
        return float(bounds.min())
