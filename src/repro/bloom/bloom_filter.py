"""Space-efficient Bloom filter (Bloom 1970), built from scratch.

TARDIS attaches one Bloom filter per partition, keyed by the ``isaxt(b)``
signatures it stores, so exact-match queries for absent series skip the
high-latency partition load entirely (paper §IV-C and §V-A).  A Bloom
filter may return false positives but never false negatives — exactly the
guarantee that keeps the exact-match algorithm correct.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["BloomFilter"]


def _digest_pair(item: str | bytes) -> tuple[int, int]:
    """Two independent 64-bit hashes via one blake2b digest.

    Kirsch-Mitzenmacher double hashing derives the ``k`` probe positions as
    ``h1 + i * h2``, which is indistinguishable from ``k`` independent
    hashes for Bloom-filter purposes.
    """
    data = item.encode("utf-8") if isinstance(item, str) else item
    digest = hashlib.blake2b(data, digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1  # odd => full cycle
    return h1, h2


#: ORed into every ``(h1, h2)`` row: the odd ``h2`` of :func:`_digest_pair`.
_ODD = np.array([0, 1], dtype=np.uint64)


def _digests(items) -> np.ndarray:
    """The ``(n, 2)`` uint64 :func:`_digest_pair` of every item, from one
    buffer of joined digests instead of two ``int.from_bytes`` each."""
    blake2b = hashlib.blake2b
    joined = b"".join(
        blake2b(
            item.encode("utf-8") if isinstance(item, str) else item,
            digest_size=16,
        ).digest()
        for item in items
    )
    return np.frombuffer(joined, dtype="<u8").reshape(-1, 2) | _ODD


@dataclass
class BloomFilter:
    """A fixed-size Bloom filter over strings/bytes.

    Use :meth:`with_capacity` to size the bit array for an expected item
    count and target false-positive rate using the optimal formulas
    ``m = -n ln p / (ln 2)^2`` and ``k = (m/n) ln 2``.
    """

    n_bits: int
    n_hashes: int
    bits: np.ndarray = None  # type: ignore[assignment]
    n_items: int = 0

    def __post_init__(self) -> None:
        if self.n_bits <= 0:
            raise ValueError("n_bits must be positive")
        if self.n_hashes <= 0:
            raise ValueError("n_hashes must be positive")
        if self.bits is None:
            self.bits = np.zeros((self.n_bits + 7) // 8, dtype=np.uint8)

    @classmethod
    def with_capacity(cls, expected_items: int, fp_rate: float = 0.01) -> "BloomFilter":
        """Size a filter for ``expected_items`` at the target ``fp_rate``."""
        if expected_items <= 0:
            raise ValueError("expected_items must be positive")
        if not 0.0 < fp_rate < 1.0:
            raise ValueError("fp_rate must be in (0, 1)")
        n_bits = max(8, math.ceil(-expected_items * math.log(fp_rate) / math.log(2) ** 2))
        n_hashes = max(1, round(n_bits / expected_items * math.log(2)))
        return cls(n_bits=n_bits, n_hashes=n_hashes)

    def _positions(self, items) -> np.ndarray:
        """The ``(n, k)`` probe positions ``(h1 + i * h2) mod n_bits`` of
        ``items``, the sum and product wrapping at 2**64."""
        digests = _digests(items)
        i = np.arange(self.n_hashes, dtype=np.uint64)
        return (digests[:, :1] + i * digests[:, 1:]) % np.uint64(self.n_bits)

    def add(self, item: str | bytes) -> None:
        """Insert an item (idempotent): :meth:`add_many` of one."""
        self.add_many([item])

    def add_many(self, items) -> None:
        """Insert ``items`` in order, leaving what a loop of adds leaves.

        ``n_items`` counts *distinct* bit patterns: re-adding an item whose
        probe bits are all set already changes nothing, so it is not
        counted — otherwise duplicate-heavy inserts (every record sharing a
        leaf signature) would inflate the count that sizes reports and
        drives :meth:`estimated_fp_rate` interpretation.  In one batch an
        item therefore counts iff it is the first to set some bit: a
        position clear beforehand whose first occurrence, in item order,
        is its own.  One digest per item, one ``(n, k)`` position array,
        one bit write.
        """
        positions = self._positions(items).ravel()
        mask = (1 << (positions & 7)).astype(np.uint8)
        clear = (self.bits[positions >> 3] & mask) == 0
        if not clear.any():
            return
        _bits, first = np.unique(positions, return_index=True)
        self.n_items += len(np.unique(first[clear[first]] // self.n_hashes))
        np.bitwise_or.at(self.bits, positions >> 3, mask)

    def __contains__(self, item: str | bytes) -> bool:
        """Membership test: False is definitive, True may be spurious."""
        positions = self._positions([item])[0]
        mask = (1 << (positions & 7)).astype(np.uint8)
        return bool(np.all(self.bits[positions >> 3] & mask))

    @property
    def nbytes(self) -> int:
        """Serialized size (bit array only; header is negligible)."""
        return int(self.bits.nbytes)

    def estimated_fp_rate(self) -> float:
        """Current false-positive probability from the fill ratio."""
        set_bits = int(np.unpackbits(self.bits).sum())
        fill = set_bits / self.n_bits
        return fill**self.n_hashes

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Merge two filters built with identical parameters.

        ``n_items`` of the union cannot be the sum of the operands' counts:
        items present in both sides would be double-counted.  It is instead
        estimated from the merged fill ratio with the standard cardinality
        formula ``n ≈ -(m/k) ln(1 - X/m)`` (Swamidass & Baldi 2007), which
        is exact in expectation and rounds to the true distinct count for
        the sparsely-filled filters TARDIS builds.
        """
        if (self.n_bits, self.n_hashes) != (other.n_bits, other.n_hashes):
            raise ValueError("can only union filters with identical geometry")
        merged = BloomFilter(self.n_bits, self.n_hashes)
        merged.bits = self.bits | other.bits
        set_bits = int(np.unpackbits(merged.bits, count=merged.n_bits).sum())
        if set_bits >= merged.n_bits:
            merged.n_items = max(self.n_items, other.n_items)
        else:
            merged.n_items = round(
                -merged.n_bits / merged.n_hashes
                * math.log(1.0 - set_bits / merged.n_bits)
            )
        return merged
