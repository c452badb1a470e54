"""Character-level iSAX representation (paper §II-B/C) for the baseline.

An iSAX word assigns each segment its own cardinality: segment ``j`` is a
pair ``(symbol_j, bits_j)`` with ``bits_j <= max_bits``.  This is the
representation used by the iSAX Binary Tree (iBT) and by DPiSAX; TARDIS
replaces it with the word-level :mod:`repro.core.isaxt` signature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paa import paa_transform
from .sax import sax_symbols

__all__ = ["ISaxWord", "isax_from_series", "isax_from_paa"]


@dataclass(frozen=True)
class ISaxWord:
    """An iSAX word with per-segment (character-level) cardinalities.

    ``symbols[j]`` is the SAX symbol of segment ``j`` expressed with
    ``bits[j]`` bits.  Immutable and hashable so it can key dictionaries
    (e.g. the DPiSAX partition table).
    """

    symbols: tuple[int, ...]
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) != len(self.bits):
            raise ValueError("symbols and bits must have equal length")
        for sym, b in zip(self.symbols, self.bits):
            if b < 0:
                raise ValueError("negative bit width")
            if not 0 <= sym < (1 << b) and b > 0:
                raise ValueError(f"symbol {sym} does not fit in {b} bits")

    @property
    def word_length(self) -> int:
        return len(self.symbols)

    def covers(self, other: "ISaxWord") -> bool:
        """True if ``other`` (at >= cardinality per segment) falls in this
        word's region — i.e. every segment of ``other``, truncated to this
        word's bit width, equals this word's symbol.

        This is the (expensive, per-character) matching operation the paper
        criticizes in iBT map-table lookups.
        """
        if other.word_length != self.word_length:
            return False
        for j in range(self.word_length):
            if other.bits[j] < self.bits[j]:
                return False
            if (other.symbols[j] >> (other.bits[j] - self.bits[j])) != self.symbols[j]:
                return False
        return True

    def split_child(self, segment: int, extra_bit: int) -> "ISaxWord":
        """The child word after promoting ``segment`` by one bit.

        ``extra_bit`` (0 or 1) is appended as the new least-significant bit
        of that segment — the iBT binary split (paper Fig. 2a).
        """
        if extra_bit not in (0, 1):
            raise ValueError("extra_bit must be 0 or 1")
        symbols = list(self.symbols)
        bits = list(self.bits)
        symbols[segment] = (symbols[segment] << 1) | extra_bit
        bits[segment] += 1
        return ISaxWord(tuple(symbols), tuple(bits))

    def __str__(self) -> str:  # e.g. "[01_2, 1_1, 00_2]"
        parts = [
            format(sym, f"0{b}b") + f"_{b}" if b else "*"
            for sym, b in zip(self.symbols, self.bits)
        ]
        return "[" + ", ".join(parts) + "]"


def isax_from_paa(paa: np.ndarray, bits: int) -> ISaxWord:
    """Full-cardinality iSAX word (every segment at ``bits`` bits)."""
    symbols = sax_symbols(paa, bits)
    w = len(symbols)
    return ISaxWord(tuple(int(s) for s in symbols), (bits,) * w)


def isax_from_series(values: np.ndarray, word_length: int, bits: int) -> ISaxWord:
    """Convenience: PAA then full-cardinality iSAX word."""
    return isax_from_paa(paa_transform(values, word_length), bits)
