"""Columnar storage behind every Tardis-L partition.

The seed kept one Python tuple ``(signature, record_id, series)`` per
record, scattered across sigTree leaves; every query then paid
per-tuple costs — ``np.vstack`` over tuple lists, per-entry signature
decodes, per-node MINDIST calls.  A :class:`ColumnarBlock` stores the
partition's records once, contiguously:

* ``values`` — one ``(n_records, series_length)`` float64 matrix (None
  for un-clustered partitions);
* ``record_ids`` — parallel int64 ids;
* ``signatures`` — parallel fixed-width unicode array of full-cardinality
  iSAX-T strings;
* ``symbols`` — the pre-decoded ``(n_records, w)`` SAX symbol matrix, so
  signature-space scoring (the row bound of the pruned scans,
  un-clustered kNN, equivalence checks) never re-parses hex strings.

sigTree leaves hold *row indices* into the block, so candidate
collection returns index arrays and ranking is one ``gather_euclidean``
over the gathered rows — the ParIS+/MESSI-style move from
per-record Python to whole-frontier numpy.

Appends are amortised.  Each column lives in a private buffer that
doubles when it fills (:data:`_GROWTH`); the four public attributes are
exact-length *views* of the buffers, republished after every append —
values, signatures and symbols first, the row ids last, and only then
does the caller thread the new rows through the tree.  Readers, the
persistence layer and pickling therefore never see spare capacity, and a
view someone already holds is never written again: later rows land
beyond its end, and a regrow or a widened signature column copies into a
new buffer and leaves the old one to its holders.

Spare capacity costs address space, not memory, because every column
buffer of :data:`_MAPPED_BYTES` or more — a grown one, a loaded value
matrix, the values ``from_records`` stacks — is a private anonymous
mapping of its own (:func:`column_buffer`).  The kernel backs a page
only once it is written, and unmaps the whole buffer when its last view
is dropped.  Left to ``malloc``, a grown buffer lands on the heap once
glibc's dynamic mmap threshold has risen past its size: it then reuses
memory other buffers freed, which is resident, and what it frees stays
resident too, as free heap.  The mapping is private, so after a
``fork`` the child's writes are copy-on-write and never reach the
parent's rows.
"""

from __future__ import annotations

import mmap

import numpy as np

from ..tsdb.distance import table_index
from .isaxt import batch_decode_signatures

__all__ = ["ColumnarBlock"]

#: A full column buffer is replaced by one this many times its capacity.
_GROWTH = 2

_COLUMNS = ("record_ids", "values", "signatures", "symbols")

#: Column buffers this large or larger get a mapping of their own:
#: glibc's default mmap threshold, before it adapts.
_MAPPED_BYTES = 128 * 1024


def column_buffer(shape: tuple, dtype) -> np.ndarray:
    """An uninitialised array of ``shape`` and ``dtype``: from
    ``np.empty`` when small, else in its own private anonymous mapping,
    unmapped when the last view of it is dropped.  A platform without
    ``mmap.MAP_PRIVATE`` always gets ``np.empty``."""
    dtype = np.dtype(dtype)
    nbytes = dtype.itemsize * int(np.prod(shape))
    if nbytes < _MAPPED_BYTES or not hasattr(mmap, "MAP_PRIVATE"):
        return np.empty(shape, dtype)
    mapping = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(mapping, dtype).reshape(shape)


def _in_buffer(array: np.ndarray) -> np.ndarray:
    """``array`` itself, or a copy in a :func:`column_buffer` when it is
    large enough for a mapping of its own."""
    if array.nbytes < _MAPPED_BYTES:
        return array
    buffer = column_buffer(array.shape, array.dtype)
    buffer[...] = array
    return buffer


def _extended(buffer: np.ndarray, used: int, rows: np.ndarray) -> np.ndarray:
    """``buffer`` with ``rows`` written at ``[used, used + len(rows))``.

    Written in place while the rows fit; otherwise — the buffer is full,
    the rows need a wider dtype (a longer signature), or an empty block
    meets its first series length — into a new, geometrically larger
    buffer that takes over the ``used`` leading rows.
    """
    end = used + len(rows)
    dtype = np.promote_types(buffer.dtype, rows.dtype)
    shape = rows.shape[1:] if used == 0 else buffer.shape[1:]
    if end > len(buffer) or dtype != buffer.dtype or shape != buffer.shape[1:]:
        grown = column_buffer((max(end, _GROWTH * len(buffer)), *shape), dtype)
        if used:
            grown[:used] = buffer[:used]
        buffer = grown
    buffer[used:end] = rows
    return buffer


class ColumnarBlock:
    """Contiguous column arrays for one partition's records.

    Rows are append-only: deletes detach rows from the sigTree (the row
    becomes unreferenced and is reclaimed on the next rebuild), inserts
    append. ``n_rows`` therefore bounds — but after deletes may exceed —
    the partition's live record count.
    """

    __slots__ = (
        "record_ids", "values", "signatures", "symbols", "_buffers",
        "_symbol_index",
    )

    def __init__(
        self,
        record_ids: np.ndarray,
        values: np.ndarray | None,
        signatures: np.ndarray,
        symbols: np.ndarray,
    ):
        self.record_ids = record_ids
        self.values = values
        self.signatures = signatures
        self.symbols = symbols
        #: Column name → the buffer its public view is a prefix of.  The
        #: arrays handed in are the first buffers, full to capacity, so
        #: nothing is ever written into memory the block did not allocate.
        self._buffers = {name: getattr(self, name) for name in _COLUMNS}
        self._symbol_index: tuple | None = None

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_records(
        cls, records: list, word_length: int, clustered: bool = True
    ) -> "ColumnarBlock":
        """Build from ``(signature, record_id, series)`` tuples in order."""
        n = len(records)
        if n == 0:
            return cls.empty(word_length, series_length=0, clustered=clustered)
        record_ids = np.fromiter(
            (r[1] for r in records), dtype=np.int64, count=n
        )
        signatures = np.asarray([r[0] for r in records])
        symbols, _bits = batch_decode_signatures(signatures, word_length)
        values = None
        if clustered:
            values = np.stack(
                [r[2] for r in records],
                out=column_buffer((n, len(records[0][2])), np.float64),
            )
        return cls(
            _in_buffer(record_ids), values, _in_buffer(signatures),
            _in_buffer(symbols),
        )

    @classmethod
    def empty(
        cls, word_length: int, series_length: int, clustered: bool = True
    ) -> "ColumnarBlock":
        return cls(
            record_ids=np.zeros(0, dtype=np.int64),
            values=(
                np.zeros((0, series_length), dtype=np.float64)
                if clustered else None
            ),
            signatures=np.zeros(0, dtype="<U1"),
            symbols=np.zeros((0, word_length), dtype=np.uint32),
        )

    # -- shape ------------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return int(self.record_ids.shape[0])

    @property
    def clustered(self) -> bool:
        return self.values is not None

    @property
    def nbytes(self) -> int:
        total = (
            self.record_ids.nbytes + self.signatures.nbytes
            + self.symbols.nbytes
        )
        if self.values is not None:
            total += self.values.nbytes
        return total

    def symbol_index(self, bits: int) -> np.ndarray:
        """Every row's :func:`~repro.tsdb.distance.table_index` at the
        block's (full) cardinality ``bits``: what a query's gap table is
        gathered through to price rows.

        Depends on the symbols alone, so it is computed once and kept,
        tagged with the symbol view it was built from — every append
        publishes a fresh view, and the tag is checked by identity at use.
        Concurrent readers may each build one; each publishes a finished
        pair in a single assignment.
        """
        symbols = self.symbols
        cached = self._symbol_index
        if cached is None or cached[0] is not symbols:
            cached = self._symbol_index = (symbols, table_index(symbols, bits))
        return cached[1]

    def signature_at(self, row: int) -> str:
        return str(self.signatures[row])

    def entry_at(self, row: int) -> tuple:
        """Materialize one legacy ``(signature, record_id, series)`` tuple."""
        series = self.values[row] if self.values is not None else None
        return (str(self.signatures[row]), int(self.record_ids[row]), series)

    # -- maintenance ------------------------------------------------------------

    def append_rows(
        self,
        signatures,
        record_ids,
        values: np.ndarray | None,
        symbols: np.ndarray,
    ) -> int:
        """Append ``m`` records in order; returns the first one's row index.

        ``signatures`` and ``record_ids`` are length-``m`` sequences,
        ``symbols`` the ``(m, w)`` SAX symbols and ``values`` the
        ``(m, series_length)`` raw series (ignored by an un-clustered
        block).  Amortised O(rows written): see the module docstring for
        the growth policy and the publication order.
        """
        start = self.n_rows
        if len(record_ids) == 0:
            return start
        rows = {}  # in publication order
        if self.values is not None:
            if values is None:
                raise ValueError("clustered block needs the raw series")
            rows["values"] = np.asarray(values, dtype=np.float64)
        rows["signatures"] = np.asarray(signatures, dtype=str)
        rows["symbols"] = np.asarray(symbols, dtype=np.uint32)
        rows["record_ids"] = np.asarray(record_ids, dtype=np.int64)
        end = start + len(record_ids)
        for name, new in rows.items():
            buffer = self._buffers[name] = _extended(
                self._buffers[name], start, new
            )
            setattr(self, name, buffer[:end])
        return start

    def append(
        self,
        signature: str,
        record_id: int,
        series: np.ndarray | None,
        symbols: np.ndarray,
    ) -> int:
        """Append one record; returns its row index."""
        return self.append_rows(
            [signature], [record_id],
            None if series is None else np.asarray(series)[None, :],
            np.asarray(symbols)[None, :],
        )

    # -- pickling ---------------------------------------------------------------

    def __getstate__(self) -> dict:
        # The exact-length views, never the spare capacity behind them.
        return {key: getattr(self, key) for key in _COLUMNS}

    def __setstate__(self, state: dict) -> None:
        self._symbol_index = None
        for key in _COLUMNS:
            setattr(self, key, state[key])
        # The loaded arrays become the first buffers, full to capacity.
        self._buffers = {name: getattr(self, name) for name in _COLUMNS}
