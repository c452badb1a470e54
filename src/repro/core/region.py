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

**Two levels.**  Dropping a prefix's last bit plane (iSAX-T's
``dropRight``, the paper's Eq. 2) gives the one-bit region that
contains it, whose bound is never larger.  A synopsis derives those
one-bit rows from its prefix set; they are far fewer (296 against
10,280 rows on a 50 k × 128 index).  :meth:`RegionMatrix.cap` prices
every partition's one-bit rows first and the exact rows only of the
partitions that can still make the cut — the lower-bound-first order of
ParIS+ (arXiv:2009.01614) applied to the ``pth`` cap.

**One version counter.**  :meth:`RegionSynopsis.add` and a partition
swap (:func:`regions_changed`) bump a process-wide counter; a matrix
built at an older count is stale, so holding one costs a query one
integer comparison rather than a walk over every synopsis.  The count
is per process, not per index: a write to one index also retires the
matrices of the others in the process (a threads-mode cluster's router
and shards); their rebuild only re-stacks cached blocks, since no
synopsis of theirs changed.
"""

from __future__ import annotations

import threading

import numpy as np

from ..tsdb.distance import as_gap_table, table_index
from .isaxt import batch_decode_signatures

__all__ = ["RegionSynopsis", "RegionMatrix", "regions_changed"]

_FIRST_ROW = np.zeros(1, dtype=np.intp)

#: Exact bounds :meth:`RegionMatrix.cap` computes per kernel call after
#: the first call, which prices as many as it keeps.
CAP_CHUNK = 8

#: How many times any region synopsis changed in this process.
_version = 0
_version_lock = threading.Lock()


def regions_changed() -> None:
    """Retire every :class:`RegionMatrix` built so far.

    Called after a synopsis grew and after partitions were swapped in;
    the bump comes after the change it announces, so a matrix that read
    the counter before the change is stale by the next check.
    """
    global _version
    with _version_lock:
        _version += 1


def _decode_rows(prefixes, word_length: int) -> tuple:
    """``(gap-table index, bits)`` of a set of equal-length prefixes."""
    symbols, bits = batch_decode_signatures(
        np.asarray(sorted(prefixes), dtype=str), word_length
    )
    return table_index(symbols, bits), bits


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
            regions_changed()

    def table_rows(self) -> tuple:
        """``(prefix set, its (r, w) gap-table index, bits, one-bit
        index, one-bit bits)``.

        The one-bit rows are those of the prefixes' first bit plane
        (``prefix[:w / 4]``), distinct; at one bit or fewer they are the
        exact rows.  Cached on the identity of the copy-on-write prefix
        set, which is read before the decode and published with it in
        one assignment.
        """
        prefixes = self.region_prefixes
        cached = self._rows
        if cached is None or cached[0] is not prefixes:
            rows, bits = _decode_rows(prefixes, self.word_length)
            if bits > 1:
                per_plane = self.word_length // 4
                coarse = _decode_rows(
                    {prefix[:per_plane] for prefix in prefixes},
                    self.word_length,
                )
            else:
                coarse = rows, bits
            cached = self._rows = (prefixes, rows, bits, *coarse)
        return cached

    def bound(self, query_paa, series_length: int) -> float:
        """Sound lower bound on the distance from the query to ANY
        record in the partition (min MINDIST over the synopsis regions).

        ``query_paa`` is the query's PAA word or its
        :class:`~repro.tsdb.distance.GapTable`.
        """
        prefixes, rows, bits, _coarse, _coarse_bits = self.table_rows()
        if not prefixes:
            return float(np.inf)
        gaps = as_gap_table(query_paa, bits)
        return float(gaps.mindist(rows, series_length, _FIRST_ROW)[0])


class _Level:
    """One level's gap-table index rows: each partition's own block (in
    partition order), and all of them stacked for a whole-set pass."""

    __slots__ = ("blocks", "index", "occupied", "starts")

    def __init__(self, blocks: list):
        self.blocks = blocks
        counts = np.array([len(rows) for rows in blocks], dtype=np.intp)
        self.occupied = counts > 0
        self.index = (
            np.concatenate(blocks) if blocks else np.zeros((0, 0), np.intp)
        )
        self.starts = (np.cumsum(counts) - counts)[self.occupied]

    def price(self, gaps, series_length: int, positions=None) -> np.ndarray:
        """Region bounds of the partitions at ``positions`` (default:
        all), in that order, +inf where a synopsis is empty.  A subset
        gathers only its own partitions' rows."""
        if positions is None:
            out = np.full(len(self.occupied), np.inf)
            if len(self.starts):
                out[self.occupied] = gaps.mindist(
                    self.index, series_length, self.starts
                )
            return out
        out = np.full(len(positions), np.inf)
        blocks, occupied, starts, at = [], [], [], 0
        for i, position in enumerate(positions):
            rows = self.blocks[position]
            if len(rows):
                blocks.append(rows)
                occupied.append(i)
                starts.append(at)
                at += len(rows)
        if blocks:
            out[occupied] = gaps.mindist(
                np.concatenate(blocks), series_length, starts
            )
        return out


class RegionMatrix:
    """The region bounds of a whole set of partitions in one kernel pass.

    Stacks the synopses' exact and one-bit gap-table index blocks in
    partition-id order.  Immutable: it is stale once any synopsis grew or
    partitions were swapped (:func:`regions_changed` moved the
    process-wide count past :attr:`version`), and a fresh one then
    re-decodes only the members that changed — the others hand over
    their cached blocks.
    """

    __slots__ = ("version", "_pids", "_position_of", "_exact", "_coarse",
                 "_bits")

    def __init__(self, synopses: dict):
        """``synopses`` maps partition id → :class:`RegionSynopsis`."""
        #: Read before the synopses, so a change made while this matrix
        #: is built leaves it stale.
        self.version = _version
        self._pids = sorted(synopses)
        #: Partition id → position in :attr:`_pids` (-1: not a member).
        self._position_of = np.full(
            max(self._pids, default=-1) + 1, -1, dtype=np.intp
        )
        self._position_of[self._pids] = np.arange(len(self._pids))
        cached = [synopses[pid].table_rows() for pid in self._pids]
        self._exact = _Level([rows for _p, rows, _b, _c, _cb in cached])
        self._coarse = _Level([coarse for _p, _r, _b, coarse, _cb in cached])
        self._bits = max((bits for _p, _r, bits, _c, _cb in cached), default=0)

    @classmethod
    def current(cls, held: "RegionMatrix | None", synopses):
        """``held`` while no region changed since it was built, else a
        new matrix over ``synopses()`` (a callable, so that a current
        matrix costs its holder no mapping)."""
        if held is not None and held.version == _version:
            return held
        return cls(synopses())

    def _positions(self, partition_ids) -> np.ndarray:
        positions = self._position_of[np.asarray(partition_ids, np.intp)]
        if (positions < 0).any():
            raise KeyError(f"not in this matrix: {partition_ids}")
        return positions

    def bounds(
        self, query_paa, series_length: int, partition_ids=None
    ) -> dict[int, float]:
        """Partition id → :meth:`RegionSynopsis.bound`, the same floats,
        for ``partition_ids`` (default: every partition)."""
        gaps = as_gap_table(query_paa, self._bits)
        if partition_ids is None:
            return dict(zip(
                self._pids, self._exact.price(gaps, series_length).tolist()
            ))
        if not len(partition_ids):
            return {}
        priced = self._exact.price(
            gaps, series_length, self._positions(partition_ids)
        )
        return dict(zip(partition_ids, priced.tolist()))

    def cap(
        self, query_paa, series_length: int, partition_ids: list, keep: int,
    ) -> tuple[list, int]:
        """The ``keep`` partitions of ``partition_ids`` with the smallest
        ``(bound, pid)``, in that order — what sorting them all by
        :meth:`bounds` would keep — and how many exact bounds it took.

        Prices every partition's one-bit rows in one pass, then the
        exact rows in ascending ``(one-bit bound, pid)`` order: ``keep``
        partitions first, then :data:`CAP_CHUNK` at a time, until the
        ``keep``-th exact bound is strictly below the next one-bit
        bound.  No partition left unpriced can then make the cut: its
        exact bound is at least its one-bit bound.
        """
        if keep <= 0:
            return [], 0
        gaps = as_gap_table(query_paa, self._bits)
        pids = np.asarray(partition_ids, dtype=np.intp)
        positions = self._positions(pids)
        coarse = self._coarse.price(gaps, series_length)[positions]
        order = np.lexsort((pids, coarse))
        best: list[tuple[float, int]] = []
        start, size = 0, keep
        while start < len(order):
            chunk = order[start:start + size]
            start += len(chunk)
            exact = self._exact.price(gaps, series_length, positions[chunk])
            best = sorted(best + list(zip(exact.tolist(), pids[chunk].tolist())))
            del best[keep:]
            if (
                len(best) == keep and start < len(order)
                and best[-1][0] < coarse[order[start]]
            ):
                break
            size = CAP_CHUNK
        return [pid for _bound, pid in best], start
