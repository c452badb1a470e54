"""Distance functions and iSAX lower bounds.

The lower-bound (MINDIST) functions are the pruning workhorses of both
TARDIS and the DPiSAX baseline: for any series ``X`` whose SAX word at some
cardinality is ``S``, ``mindist_paa_to_word(PAA(Q), S) <= ED(Q, X)``.  A
search may therefore discard every index node whose MINDIST to the query
already exceeds the current best-so-far distance without touching raw data.
"""

from __future__ import annotations

from functools import lru_cache
from time import perf_counter

import numpy as np

from ..telemetry.perf import KERNELS as _KERNELS
from .sax import breakpoints

__all__ = [
    "squared_euclidean",
    "euclidean",
    "batch_euclidean",
    "gather_euclidean",
    "word_region_bounds",
    "mindist_paa_to_word",
    "mindist_paa_to_words",
    "mindist_word_to_word",
    "GapTable",
    "as_gap_table",
    "table_index",
]


def squared_euclidean(x: np.ndarray, y: np.ndarray) -> float:
    """Squared Euclidean distance (avoids the sqrt when only ranking)."""
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.dot(diff, diff))


def euclidean(x: np.ndarray, y: np.ndarray) -> float:
    """Euclidean distance between two equal-length vectors (paper Eq. 1)."""
    return float(np.sqrt(squared_euclidean(x, y)))


def batch_euclidean(query: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Euclidean distances from ``query`` to every row of ``candidates``.

    Allocates ``candidates - query`` beside ``candidates``; a caller that
    would first gather ``candidates`` out of a larger matrix should call
    :func:`gather_euclidean`, which subtracts in the gathered copy.
    """
    t0 = perf_counter() if _KERNELS.enabled else 0.0
    query = np.asarray(query, dtype=np.float64)
    candidates = np.asarray(candidates, dtype=np.float64)
    if candidates.ndim == 1:
        candidates = candidates[None, :]
    diff = candidates - query[None, :]
    out = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    if _KERNELS.enabled:
        _KERNELS.record("euclidean", elements=candidates.size,
                        seconds=perf_counter() - t0)
    return out


def gather_euclidean(
    query: np.ndarray, values: np.ndarray, rows
) -> np.ndarray:
    """``batch_euclidean(query, values[rows])`` with one temporary.

    The rows are gathered once (``take``) and the query is subtracted in
    that copy, so scoring ``len(rows)`` rows allocates one
    ``(len(rows), L)`` array instead of two.  Bit for bit the same
    distances: the same subtraction, ``einsum`` and ``sqrt``.  Recorded
    as the ``euclidean`` kernel over ``len(rows) × L`` elements.
    """
    t0 = perf_counter() if _KERNELS.enabled else 0.0
    query = np.asarray(query, dtype=np.float64)
    diff = np.asarray(values, dtype=np.float64).take(rows, axis=0)
    diff -= query
    out = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    if _KERNELS.enabled:
        _KERNELS.record("euclidean", elements=diff.size,
                        seconds=perf_counter() - t0)
    return out


def word_region_bounds(
    symbols: np.ndarray, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-segment ``(lower, upper)`` stripe bounds for a word.

    ``symbols`` is an integer array of SAX symbols at cardinality
    ``2^bits``.  Returns two float arrays of the same shape; the outermost
    stripes extend to ``±inf``.  For ``bits == 0`` every segment covers the
    whole real line.
    """
    symbols = np.asarray(symbols, dtype=np.int64)
    if bits == 0:
        lower = np.full(symbols.shape, -np.inf)
        upper = np.full(symbols.shape, np.inf)
        return lower, upper
    bps = breakpoints(bits)
    padded = np.concatenate(([-np.inf], bps, [np.inf]))
    return padded[symbols], padded[symbols + 1]


def mindist_paa_to_word(
    paa: np.ndarray, symbols: np.ndarray, bits: int, n: int
) -> float:
    """Lower bound on ``ED(Q, X)`` from ``PAA(Q)`` and ``X``'s SAX word.

    Per segment the distance contribution is the gap between the query's
    PAA value and the symbol's stripe (zero if the value falls inside the
    stripe); segment contributions are combined with the PAA scaling factor
    ``sqrt(n / w)`` (Shieh & Keogh 2008).
    """
    t0 = perf_counter() if _KERNELS.enabled else 0.0
    paa = np.asarray(paa, dtype=np.float64)
    lower, upper = word_region_bounds(symbols, bits)
    below = np.maximum(lower - paa, 0.0)
    above = np.maximum(paa - upper, 0.0)
    gap = np.maximum(below, above)
    w = paa.shape[-1]
    out = float(np.sqrt(n / w) * np.sqrt(np.sum(gap * gap)))
    if _KERNELS.enabled:
        _KERNELS.record("mindist", elements=w,
                        seconds=perf_counter() - t0)
    return out


def mindist_paa_to_words(
    paa: np.ndarray, symbols: np.ndarray, bits: int, n: int
) -> np.ndarray:
    """Batched :func:`mindist_paa_to_word`: score a whole node frontier.

    ``symbols`` has shape ``(m, w)`` — one SAX word per row, all at
    cardinality ``2^bits`` — and the return value is the ``(m,)`` array of
    lower bounds.  Row ``i`` equals
    ``mindist_paa_to_word(paa, symbols[i], bits, n)`` bit for bit (the
    per-segment arithmetic and the reduction order are identical), which
    the equivalence suite pins down.  This is the query-path analogue of
    the SIMD lower-bound batching in ParIS+/MESSI: one call prices every
    candidate sigTree node / synopsis region instead of one call per node.
    """
    t0 = perf_counter() if _KERNELS.enabled else 0.0
    paa = np.asarray(paa, dtype=np.float64)
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.ndim != 2:
        raise ValueError("expected a (m, w) batch of SAX words")
    lower, upper = word_region_bounds(symbols, bits)
    below = np.maximum(lower - paa[None, :], 0.0)
    above = np.maximum(paa[None, :] - upper, 0.0)
    gap = np.maximum(below, above)
    w = paa.shape[-1]
    out = np.sqrt(n / w) * np.sqrt(np.sum(gap * gap, axis=1))
    if _KERNELS.enabled:
        _KERNELS.record("mindist", elements=symbols.size,
                        seconds=perf_counter() - t0)
    return out


@lru_cache(maxsize=None)
def _stripe_edges(max_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """``(lower, upper)`` edges of every stripe of layers ``0..max_bits``.

    Two ``(2^(max_bits+1) - 1, 1)`` columns; stripe ``s`` of layer ``b``
    sits at row ``2^b - 1 + s`` (row 0 is the whole real line).
    """
    layers = [
        word_region_bounds(np.arange(1 << bits), bits)
        for bits in range(max_bits + 1)
    ]
    lower, upper = (np.concatenate(edges)[:, None] for edges in zip(*layers))
    return lower, upper


def table_index(symbols: np.ndarray, bits: int) -> np.ndarray:
    """Where a :class:`GapTable` holds each symbol of ``(m, w)`` words.

    Depends on the words alone, so an index structure computes it once
    and every query's table is gathered through it.
    """
    symbols = np.asarray(symbols, dtype=np.intp)
    w = symbols.shape[-1]
    return (symbols + ((1 << bits) - 1)) * w + np.arange(w, dtype=np.intp)


class GapTable:
    """One query's squared stripe gap to every (layer, symbol, segment).

    The MINDIST kernel of the kNN hot path.  Built once per query from
    its PAA word, with the per-segment expression of
    :func:`mindist_paa_to_words` — so the bound of any SAX word of any
    layer up to ``max_bits`` is one gather through the word's
    :func:`table_index` and a row sum over the same ``(m, w)`` shape,
    equal to that function's result bit for bit.  ``sqrt`` and the
    ``sqrt(n / w)`` scale are monotone, so they are applied after the
    per-group ``min`` instead of to every word.

    The table has ``w * (2^(max_bits+1) - 1)`` floats: 8 × 127 at the
    shipped defaults, doubling with every cardinality bit.
    """

    __slots__ = ("max_bits", "word_length", "flat")

    def __init__(self, paa: np.ndarray, max_bits: int):
        t0 = perf_counter() if _KERNELS.enabled else 0.0
        paa = np.asarray(paa, dtype=np.float64)
        lower, upper = _stripe_edges(max_bits)
        below = np.maximum(lower - paa, 0.0)
        above = np.maximum(paa - upper, 0.0)
        gap = np.maximum(below, above)
        self.max_bits = max_bits
        self.word_length = paa.shape[-1]
        self.flat = (gap * gap).ravel()
        if _KERNELS.enabled:
            # Part of whichever pricing call uses the table first: its
            # seconds are MINDIST seconds, but it prices no word.
            _KERNELS.record("mindist", seconds=perf_counter() - t0, calls=0)

    def mindist(
        self, index: np.ndarray, n: int, starts: np.ndarray | None = None
    ) -> np.ndarray:
        """Lower bounds of the words behind an ``(m, w)`` table index.

        With ``starts`` (ascending first rows of non-empty groups) the
        result is each group's smallest bound — a region bound.
        """
        t0 = perf_counter() if _KERNELS.enabled else 0.0
        squared = self.flat.take(index).sum(axis=1)
        if starts is not None:
            squared = np.minimum.reduceat(squared, starts)
        out = np.sqrt(n / self.word_length) * np.sqrt(squared)
        if _KERNELS.enabled:
            _KERNELS.record("mindist", elements=index.size,
                            seconds=perf_counter() - t0)
        return out


def as_gap_table(paa, max_bits: int) -> GapTable:
    """``paa`` itself when it already is a deep-enough :class:`GapTable`,
    else the table of that PAA word — so one table, built by whoever
    holds the query first, serves every bound computed for it."""
    if isinstance(paa, GapTable):
        if paa.max_bits < max_bits:
            raise ValueError(
                f"gap table covers {paa.max_bits} cardinality bits, "
                f"{max_bits} needed"
            )
        return paa
    return GapTable(paa, max_bits)


def mindist_word_to_word(
    symbols_a: np.ndarray,
    bits_a: int,
    symbols_b: np.ndarray,
    bits_b: int,
    n: int,
) -> float:
    """Lower bound on ``ED(X, Y)`` from the two SAX words alone.

    Each word defines a per-segment stripe; the contribution of a segment is
    the gap between the two stripes (zero when they overlap).  Used when the
    raw query values are unavailable — e.g. signature-only comparisons in
    the un-clustered baseline.
    """
    low_a, up_a = word_region_bounds(symbols_a, bits_a)
    low_b, up_b = word_region_bounds(symbols_b, bits_b)
    gap = np.maximum(
        np.maximum(low_a - up_b, low_b - up_a),
        0.0,
    )
    # ±inf bounds only ever appear on the far side of a gap computation,
    # producing -inf which the max() with 0 removes; a 0 * inf would be the
    # only NaN source and cannot occur here.
    w = np.asarray(symbols_a).shape[-1]
    return float(np.sqrt(n / w) * np.sqrt(np.sum(gap * gap)))
