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
tier.  :class:`RegionMatrix` prices many synopses in one pass of the
same kernel (:class:`~repro.tsdb.distance.GapTable`).
"""

from __future__ import annotations

import numpy as np

from ..tsdb.distance import as_gap_table, table_index
from .isaxt import batch_decode_signatures

__all__ = ["RegionSynopsis", "RegionMatrix"]

_FIRST_ROW = np.zeros(1, dtype=np.intp)


class RegionSynopsis:
    """Distinct coarse signature prefixes of one partition's records."""

    __slots__ = ("word_length", "region_prefixes", "_rows")

    def __init__(self, word_length: int, region_prefixes=()):
        self.word_length = int(word_length)
        #: Replaced, never mutated, on growth: a concurrent :meth:`bound`
        #: reads one consistent set, and the row cache keys on it.
        self.region_prefixes = set(region_prefixes)
        self._rows: tuple | None = None

    def add(self, prefixes) -> None:
        """Grow the synopsis (a grown region set can only *shrink* the
        bound, so bounds computed earlier stay sound)."""
        new = set(prefixes) - self.region_prefixes
        if new:
            self.region_prefixes = self.region_prefixes | new

    def table_rows(self) -> tuple:
        """``(prefix set, its (r, w) gap-table index, bits)``.

        Cached on the identity of the copy-on-write prefix set, which is
        read before the decode and published with it in one assignment.
        """
        prefixes = self.region_prefixes
        cached = self._rows
        if cached is None or cached[0] is not prefixes:
            symbols, bits = batch_decode_signatures(
                np.asarray(sorted(prefixes), dtype=str), self.word_length
            )
            cached = self._rows = (prefixes, table_index(symbols, bits), bits)
        return cached

    def bound(self, query_paa, series_length: int) -> float:
        """Sound lower bound on the distance from the query to ANY
        record in the partition (min MINDIST over the synopsis regions).

        ``query_paa`` is the query's PAA word or its
        :class:`~repro.tsdb.distance.GapTable`.
        """
        prefixes, rows, bits = self.table_rows()
        if not prefixes:
            return float(np.inf)
        gaps = as_gap_table(query_paa, bits)
        return float(gaps.mindist(rows, series_length, _FIRST_ROW)[0])


class RegionMatrix:
    """The region bounds of a whole set of partitions in one kernel pass.

    Stacks the synopses' gap-table index blocks in partition-id order.
    Immutable: it is stale once any member's prefix set was replaced (or
    partitions came or went), and a fresh one then re-decodes only the
    members that changed — the others hand over their cached blocks.
    """

    __slots__ = ("_position", "_prefix_sets", "_index", "_offsets", "_bits")

    def __init__(self, synopses: dict):
        """``synopses`` maps partition id → :class:`RegionSynopsis`."""
        #: Partition id → position, in id order.
        self._position = {pid: i for i, pid in enumerate(sorted(synopses))}
        cached = [synopses[pid].table_rows() for pid in self._position]
        self._prefix_sets = [prefixes for prefixes, _rows, _bits in cached]
        blocks = [rows for _prefixes, rows, _bits in cached]
        self._index = (
            np.concatenate(blocks) if blocks else np.zeros((0, 0), np.intp)
        )
        self._offsets = np.concatenate(
            ([0], np.cumsum([len(rows) for rows in blocks], dtype=np.intp))
        )
        self._bits = max((bits for _p, _r, bits in cached), default=0)

    @classmethod
    def current(cls, held: "RegionMatrix | None", synopses: dict):
        """``held`` while it still describes ``synopses``, else a new one."""
        if held is not None and held._position.keys() == synopses.keys():
            if all(
                synopses[pid].region_prefixes is prefixes
                for pid, prefixes in zip(held._position, held._prefix_sets)
            ):
                return held
        return cls(synopses)

    def bounds(
        self, query_paa, series_length: int, partition_ids=None
    ) -> dict[int, float]:
        """Partition id → :meth:`RegionSynopsis.bound`, the same floats,
        for ``partition_ids`` (default: every partition).

        Prices the contiguous run of partitions (in id order) that
        covers the asked-for ones — a Tardis-G sibling list is exactly
        such a run until a rebalance appends to it.
        """
        if partition_ids is None:
            partition_ids = list(self._position)
        positions = [self._position[pid] for pid in partition_ids]
        if not positions:
            return {}
        first, last = min(positions), max(positions) + 1
        offsets = self._offsets[first:last + 1]
        starts = offsets[:-1] - offsets[0]
        occupied = offsets[1:] > offsets[:-1]
        out = np.full(last - first, np.inf)
        out[occupied] = as_gap_table(query_paa, self._bits).mindist(
            self._index[offsets[0]:offsets[-1]], series_length,
            starts[occupied],
        )
        priced = out.tolist()
        return {
            pid: priced[at - first]
            for pid, at in zip(partition_ids, positions)
        }
