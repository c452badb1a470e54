"""Symbolic Aggregate approXimation (SAX) over PAA words.

SAX discretizes each PAA segment mean into one of ``2^b`` symbols using
breakpoints that cut the standard normal distribution into equi-probable
stripes (paper §II-B, Fig. 1c-d).  Symbols are integers ``0 .. 2^b - 1``
ordered from the lowest stripe upward.

The Gaussian quantile breakpoints are *nested*: the breakpoints for
cardinality ``2^(b-1)`` are exactly the even-indexed breakpoints for ``2^b``.
Consequently a symbol's representation at a lower cardinality is obtained by
dropping its least-significant bits (``symbol >> (b - b')``) — the property
that makes iSAX/iSAX-T cardinality reduction a pure bit operation.

The breakpoints are the standard normal quantiles ``ndtri((i + 1) / 2^b)``
computed by :func:`_ndtri`, a port of the Cephes routine that
``scipy.stats.norm.ppf`` calls, so they are bit-identical to scipy's.
Importing ``scipy.stats`` for these few hundred numbers cost every
process that imports ``repro`` about 65 MB of RSS and most of a second.
The stdlib ``statistics.NormalDist().inv_cdf`` is a different
approximation (Wichura's AS241): it differs from ``ndtri`` in 360 of
the 511 breakpoints at 9 bits, by up to 4 ulp, and a breakpoint that
moves by one ulp can move a value on it into the next symbol.
"""

from __future__ import annotations

import math
from functools import lru_cache
from time import perf_counter

import numpy as np

from ..telemetry.perf import KERNELS as _KERNELS

__all__ = [
    "MAX_CARDINALITY_BITS",
    "breakpoints",
    "sax_symbols",
    "symbol_bounds",
    "reduce_symbol",
]

#: Hard cap on cardinality bits; 2^16 stripes is far beyond any useful SAX
#: resolution and keeps the breakpoint cache tiny.
MAX_CARDINALITY_BITS = 16

# Cephes ``ndtri`` (Stephen L. Moshier, as shipped in scipy.special,
# BSD-licensed): the coefficients and the evaluation order are copied
# exactly, which is what makes the result bit-identical to scipy's.
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
# |y - 0.5| <= 3/8
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# z = sqrt(-2 log y) in [2, 8)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# z in [8, 64]
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef) -> float:
    """:func:`_polevl` with an implicit leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """The standard normal quantile of ``y0`` (Cephes ``ndtri``)."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


@lru_cache(maxsize=MAX_CARDINALITY_BITS + 1)
def breakpoints(bits: int) -> np.ndarray:
    """The ``2^bits - 1`` sorted breakpoints for cardinality ``2^bits``.

    ``breakpoints(b)[i] == _ndtri((i + 1) / 2**b)``.  For ``bits == 0``
    (a single stripe covering the whole real line) the array is empty.
    """
    if bits < 0 or bits > MAX_CARDINALITY_BITS:
        raise ValueError(f"bits must be in [0, {MAX_CARDINALITY_BITS}]")
    cardinality = 1 << bits
    quantiles = np.arange(1, cardinality) / cardinality
    bps = np.array([_ndtri(q) for q in quantiles.tolist()], dtype=np.float64)
    # The cached array is shared by every caller; one in-place mutation
    # would silently corrupt all later SAX conversions, so it is frozen.
    bps.setflags(write=False)
    return bps


def sax_symbols(paa_values: np.ndarray, bits: int) -> np.ndarray:
    """Map PAA values to SAX symbol integers at cardinality ``2^bits``.

    Works on scalars, 1-D words, or batches; returns ``uint32`` symbols with
    the same shape.  A value exactly on a breakpoint belongs to the upper
    stripe.
    """
    t0 = perf_counter() if _KERNELS.enabled else 0.0
    paa_values = np.asarray(paa_values, dtype=np.float64)
    bps = breakpoints(bits)
    out = np.searchsorted(bps, paa_values, side="right").astype(np.uint32)
    if _KERNELS.enabled:
        _KERNELS.record("sax", elements=out.size,
                        seconds=perf_counter() - t0)
    return out


def symbol_bounds(symbol: int, bits: int) -> tuple[float, float]:
    """The value interval ``[lower, upper)`` covered by a symbol's stripe.

    The bottom stripe extends to ``-inf`` and the top stripe to ``+inf``.
    """
    cardinality = 1 << bits
    if not 0 <= symbol < cardinality:
        raise ValueError(f"symbol {symbol} out of range for {bits} bits")
    bps = breakpoints(bits)
    lower = -np.inf if symbol == 0 else float(bps[symbol - 1])
    upper = np.inf if symbol == cardinality - 1 else float(bps[symbol])
    return lower, upper


def reduce_symbol(symbol: int, from_bits: int, to_bits: int) -> int:
    """Re-express a symbol at a lower cardinality by dropping LSBs.

    Valid because Gaussian quantile breakpoints are nested (module
    docstring).
    """
    if to_bits > from_bits:
        raise ValueError("cannot increase cardinality without data")
    return symbol >> (from_bits - to_bits)
