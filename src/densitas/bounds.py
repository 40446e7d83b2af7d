"""Certified rational bounds on transcendental quantities.

Parameter validation compares factorials and naturals against e^2, e^{2(n+1)}
and log^2(N). Floating point cannot certify such comparisons, so these
helpers sum the series for exp and atanh in fixed-point integers (a value v
at scale w is the integer v * 2^w), round every term outward, add an
explicit bound on the remainder, and return the bracket as exact rationals.
A comparison is decided only when the whole bracket sits on one side of the
threshold; otherwise the precision ladder escalates, and an undecidable
comparison at the top precision raises instead of guessing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Callable

from .exceptions import DensitasError

__all__ = ["exp_bounds", "log_bounds", "decide_less"]

_LADDER = (128, 256, 512, 1024)
# fractional bits carried past the requested precision: a series loses a
# few units of the last place per term, a few hundred at the top rung
_GUARD = 16


def _exp_series(a: int, b: int, w: int) -> tuple[int, int]:
    """Bracket of e^(a/b) at scale w, for 0 <= a/b <= 1.

    The Taylor terms are rounded down, so their sum is the lower end. The
    j-th computed term is under the true one by less than 2 units (the
    error shrinks by a factor a/(b j) <= 1/j before each rounding adds one),
    and the series stops at the first term that rounds to 0, whose true
    value, with the whole tail, is under 2 * 2 = 4 units. So j summed terms
    lose less than 2j + 4 units in all.
    """
    s = 0
    t = 1 << w
    j = 0
    while t:
        s += t
        j += 1
        t = t * a // (b * j)
    return s, s + 2 * j + 4


def _atanh_series(a: int, b: int, w: int) -> tuple[int, int]:
    """Bracket of atanh(z) = sum of z^(2j+1)/(2j+1) at scale w, for
    0 <= z = a/b <= 1/3.

    The powers of z and the terms are rounded down, so their sum is the
    lower end. A computed power is under the true one by less than 9/8
    units (the error shrinks by z^2 <= 1/9 before each rounding adds one),
    so a term loses less than 3 units; the series stops at the first power
    that rounds to 0, and the tail from there is under (9/8)^2 < 3 units.
    So n summed terms lose less than 3(n + 1) units in all.
    """
    a2, b2 = a * a, b * b
    p = (a << w) // b
    s = 0
    d = 1
    while p:
        s += p // d
        p = p * a2 // b2
        d += 2
    return s, s + 3 * (d // 2 + 1)


# a handful of scales per ladder rung in use; the bound keeps odd callers
# from growing the caches for the life of the process
@lru_cache(maxsize=64)
def _e(w: int) -> tuple[int, int]:
    return _exp_series(1, 1, w)


@lru_cache(maxsize=64)
def _ln2(w: int) -> tuple[int, int]:
    lo, hi = _atanh_series(1, 3, w)  # ln 2 = 2 atanh(1/3)
    return 2 * lo, 2 * hi


def _exp_fixed(x: Fraction, w: int) -> tuple[int, int]:
    """Bracket of e^x at scale w for x >= 0: e^floor(x) by squaring the
    cached bracket of e, times the series for the fractional part."""
    k, a = divmod(x.numerator, x.denominator)
    r_lo = r_hi = 1 << w
    b_lo, b_hi = _e(w)
    while k:
        if k & 1:
            r_lo = r_lo * b_lo >> w
            r_hi = -(-r_hi * b_hi >> w)
        k >>= 1
        if k:
            b_lo = b_lo * b_lo >> w
            b_hi = -(-b_hi * b_hi >> w)
    if a:
        f_lo, f_hi = _exp_series(a, x.denominator, w)
        r_lo = r_lo * f_lo >> w
        r_hi = -(-r_hi * f_hi >> w)
    return r_lo, r_hi


def exp_bounds(x, bits: int = 128) -> tuple[Fraction, Fraction]:
    """Rational lo <= e^x <= hi, relatively within about 2^-bits.

    The scale grows with the bit length of floor(|x|), which the squaring
    multiplies into the relative error. A negative exponent divides one by
    the bracket of e^|x| exactly."""
    x = Fraction(x)
    mag = abs(x)
    w = bits + _GUARD + (mag.numerator // mag.denominator).bit_length()
    lo, hi = _exp_fixed(mag, w)
    if x < 0:
        return Fraction(1 << w, hi), Fraction(1 << w, lo)
    return Fraction(lo, 1 << w), Fraction(hi, 1 << w)


def log_bounds(x, bits: int = 128) -> tuple[Fraction, Fraction]:
    """Rational lo <= ln(x) <= hi for positive rational x, within about
    2^-bits absolutely: ln x = k ln 2 + 2 atanh((y-1)/(y+1)) with
    y = x / 2^k in [1, 2)."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("logarithm needs a positive argument")
    p, q = x.numerator, x.denominator
    k = p.bit_length() - q.bit_length()
    u, v = (p, q << k) if k >= 0 else (p << -k, q)
    if u < v:
        k -= 1
        u, v = (p, q << k) if k >= 0 else (p << -k, q)
    w = bits + _GUARD + abs(k).bit_length()
    g = gcd(u - v, u + v)  # a reduced z keeps each series step's divisor short
    t_lo, t_hi = _atanh_series((u - v) // g, (u + v) // g, w)
    l_lo, l_hi = _ln2(w)
    if k < 0:
        l_lo, l_hi = l_hi, l_lo
    return (Fraction(2 * t_lo + k * l_lo, 1 << w),
            Fraction(2 * t_hi + k * l_hi, 1 << w))


def decide_less(make_interval: Callable[[int], tuple[Fraction, Fraction]],
                threshold: Fraction) -> bool:
    """Whether the bracketed quantity is certainly below the threshold.

    `make_interval(bits)` returns certified rational bounds at the requested
    precision. Returns True when the upper bound clears the threshold, False
    when the lower bound does not, and escalates precision while the
    interval straddles it.
    """
    threshold = Fraction(threshold)
    for bits in _LADDER:
        lo, hi = make_interval(bits)
        if hi < threshold:
            return True
        if lo >= threshold:
            return False
    raise DensitasError(
        f"interval comparison against {threshold} undecided at {_LADDER[-1]} bits")
