"""Tests for SAX breakpoints and symbols, especially the nesting property
that makes iSAX/iSAX-T cardinality reduction a pure bit operation."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tsdb.sax import (
    MAX_CARDINALITY_BITS,
    _ndtri,
    breakpoints,
    reduce_symbol,
    sax_symbols,
    symbol_bounds,
)


class TestBreakpoints:
    def test_counts(self):
        for bits in range(0, 8):
            assert len(breakpoints(bits)) == (1 << bits) - 1

    def test_one_bit_breakpoint_is_zero(self):
        assert breakpoints(1)[0] == pytest.approx(0.0)

    def test_two_bit_values(self):
        # Quartiles of the standard normal: ±0.6745 and 0.
        bps = breakpoints(2)
        assert bps[0] == pytest.approx(-0.67448975)
        assert bps[1] == pytest.approx(0.0)
        assert bps[2] == pytest.approx(0.67448975)

    def test_strictly_increasing(self):
        for bits in range(1, 9):
            bps = breakpoints(bits)
            assert np.all(np.diff(bps) > 0)

    def test_nesting(self):
        """Breakpoints at b-1 bits are the odd-indexed ones at b bits."""
        for bits in range(2, 9):
            fine = breakpoints(bits)
            coarse = breakpoints(bits - 1)
            np.testing.assert_allclose(coarse, fine[1::2], atol=1e-12)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            breakpoints(-1)
        with pytest.raises(ValueError):
            breakpoints(MAX_CARDINALITY_BITS + 1)

    def test_cached_array_is_frozen(self):
        """The lru-cached array is shared by every caller; in-place
        mutation must raise instead of silently corrupting every later
        SAX conversion."""
        bps = breakpoints(4)
        with pytest.raises(ValueError):
            bps[0] = 99.0
        with pytest.raises(ValueError):
            bps += 1.0
        # The cache stayed clean.
        assert breakpoints(4)[0] == pytest.approx(bps[0])

    def test_frozen_copy_is_writable(self):
        bps = breakpoints(3).copy()
        bps[0] = 42.0  # a copy must not inherit the freeze
        assert breakpoints(3)[0] != 42.0


#: blake2b (16-byte digest) of ``breakpoints(b).tobytes()`` as computed by
#: ``scipy.stats.norm.ppf`` (scipy 1.17.1), before the Cephes port
#: replaced it.  A symbol is a ``searchsorted`` against these arrays, so
#: one ulp of drift can move a value into the neighbouring stripe and
#: change signatures, partitions and answers.
_SCIPY_DIGESTS = [
    "cae66941d9efbd404e4d88758ea67670",
    "c804ce198ec337e3dc762bdd1a09aece",
    "721a483df02a82d4471ac8199009b312",
    "a4ea89f930aa2559032ef3adf65db9fe",
    "801a25aab460619c6e4bc0413e7a630f",
    "d84b90ed53d650debf3684763ab7ff3e",
    "0491ba8b86eab796e0e5901404a07118",
    "a58f9d05bd78d87d9ad0d680bbdc467c",
    "0ee6b6e690af3c168cf108ed31675272",
    "616ccac799257390a1e1edae5d570be3",
    "b04700d25bdb7de13f4eb28238d696de",
    "e00269bbe37770c00aac5d32d10a4ca9",
    "d2a55611b76abf87d4c9ab996e23146d",
    "cd8f9f224c1128abd3f14b0756386329",
    "022eddb922fdd1e0e7c79d8b40c6f1aa",
    "44ccb7655a49d2b57dfc852c1fadb2d7",
    "96f59ea5cb9e46a7aa1ed2524c369d5f",
]


class TestNdtri:
    @pytest.mark.parametrize("bits", range(MAX_CARDINALITY_BITS + 1))
    def test_breakpoints_are_bit_identical_to_scipy(self, bits):
        digest = hashlib.blake2b(
            breakpoints(bits).tobytes(), digest_size=16
        ).hexdigest()
        assert digest == _SCIPY_DIGESTS[bits]

    def test_edge_cases(self):
        assert _ndtri(0.0) == -math.inf
        assert _ndtri(1.0) == math.inf
        assert _ndtri(0.5) == 0.0
        for y in (-1e-300, -0.5, 1.0 + 2**-52, 2.0, math.inf, -math.inf,
                  math.nan):
            assert math.isnan(_ndtri(y))

    def test_symmetric_and_monotone_across_branches(self):
        # Probabilities in all three branches: the central rational
        # approximation, z in [2, 8) and z >= 8 (y < exp(-32)).
        ys = [1e-300, 1e-20, 1e-14, 1e-3, 0.1, 0.2, 0.4, 0.5]
        xs = [_ndtri(y) for y in ys]
        assert xs == sorted(xs) and len(set(xs)) == len(xs)
        # 1 - y is exact for these, in the central and the tail branch.
        for y in (0.375, 0.25, 0.125, 2.0**-10):
            assert _ndtri(1.0 - y) == -_ndtri(y)


class TestSaxSymbols:
    def test_symbol_range(self):
        values = np.linspace(-4, 4, 101)
        for bits in (1, 2, 3, 6):
            symbols = sax_symbols(values, bits)
            assert symbols.min() >= 0
            assert symbols.max() <= (1 << bits) - 1

    def test_monotone_in_value(self):
        values = np.linspace(-4, 4, 101)
        symbols = sax_symbols(values, 4)
        assert np.all(np.diff(symbols.astype(int)) >= 0)

    def test_value_on_breakpoint_goes_up(self):
        # 0.0 is the 1-bit breakpoint; it belongs to the upper stripe.
        assert sax_symbols(np.array([0.0]), 1)[0] == 1

    def test_extreme_values(self):
        assert sax_symbols(np.array([-100.0]), 3)[0] == 0
        assert sax_symbols(np.array([100.0]), 3)[0] == 7

    @given(
        st.floats(-8, 8, allow_nan=False),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=150)
    def test_bit_drop_equals_recompute(self, value, bits):
        """The nesting property: truncating LSBs == re-discretizing."""
        fine = int(sax_symbols(np.array([value]), bits)[0])
        for lower in range(1, bits + 1):
            coarse = int(sax_symbols(np.array([value]), lower)[0])
            assert reduce_symbol(fine, bits, lower) == coarse

    @given(st.floats(-8, 8, allow_nan=False), st.integers(1, 9))
    @settings(max_examples=100)
    def test_value_falls_in_symbol_bounds(self, value, bits):
        symbol = int(sax_symbols(np.array([value]), bits)[0])
        lower, upper = symbol_bounds(symbol, bits)
        assert lower <= value < upper or value == upper == np.inf


class TestSymbolBounds:
    def test_extremes_are_infinite(self):
        lower, _ = symbol_bounds(0, 3)
        _, upper = symbol_bounds(7, 3)
        assert lower == -np.inf
        assert upper == np.inf

    def test_adjacent_symbols_share_boundary(self):
        for bits in (1, 2, 4):
            for symbol in range((1 << bits) - 1):
                _, upper = symbol_bounds(symbol, bits)
                lower, _ = symbol_bounds(symbol + 1, bits)
                assert upper == lower

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            symbol_bounds(4, 2)
        with pytest.raises(ValueError):
            symbol_bounds(-1, 2)


class TestReduceSymbol:
    def test_identity(self):
        assert reduce_symbol(5, 3, 3) == 5

    def test_drop_to_one_bit(self):
        assert reduce_symbol(0b1101, 4, 1) == 1
        assert reduce_symbol(0b0101, 4, 1) == 0

    def test_increase_raises(self):
        with pytest.raises(ValueError):
            reduce_symbol(1, 2, 3)
