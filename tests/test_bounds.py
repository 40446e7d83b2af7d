"""Certified interval brackets for exp and log, and the comparison ladder.

mpmath's interval arithmetic is the independent oracle for the integer
kernel; the package itself never imports it (tests/test_loading.py checks
that in fresh processes).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv
from mpmath.libmp import to_rational

from densitas import bounds
from densitas.bounds import _LADDER, decide_less, exp_bounds, log_bounds
from densitas.exceptions import DensitasError


def test_exp_bounds_bracket_e():
    lo, hi = exp_bounds(1)
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
    assert lo < hi
    assert float(lo) <= math.e <= float(hi)
    assert hi - lo < Fraction(1, 10 ** 30)


def test_exp_bounds_accept_rational_exponent():
    lo, hi = exp_bounds(Fraction(1, 2))
    assert float(lo) <= math.sqrt(math.e) <= float(hi)


def test_log_bounds_bracket_log_75():
    lo, hi = log_bounds(75)
    assert float(lo) <= math.log(75) <= float(hi)
    assert hi - lo < Fraction(1, 10 ** 30)


def test_log_bounds_reject_nonpositive():
    with pytest.raises(ValueError):
        log_bounds(0)
    with pytest.raises(ValueError):
        log_bounds(Fraction(-3, 2))


def test_width_shrinks_with_precision():
    lo1, hi1 = exp_bounds(10, bits=128)
    lo2, hi2 = exp_bounds(10, bits=256)
    assert hi2 - lo2 < hi1 - lo1
    assert lo1 <= lo2 < hi2 <= hi1


def test_decide_less_both_directions():
    e_squared = lambda bits: exp_bounds(2, bits)
    assert decide_less(e_squared, Fraction(8)) is True
    assert decide_less(e_squared, Fraction(7)) is False


def test_decide_less_near_miss_is_resolved():
    # log^2(n)/n against 1/4: n = 74 sits within 2e-4 of the threshold and
    # still gets a certified verdict, n = 75 crosses it.
    def ratio(n):
        def make(bits):
            lo, hi = log_bounds(n, bits)
            return lo * lo / n, hi * hi / n
        return make

    assert decide_less(ratio(74), Fraction(1, 4)) is False
    assert decide_less(ratio(75), Fraction(1, 4)) is True


def test_decide_less_gives_up_on_frozen_interval():
    def stuck(bits):
        return Fraction(0), Fraction(2)

    with pytest.raises(DensitasError):
        decide_less(stuck, Fraction(1))


def _mpmath_bracket(fn, x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    old = iv.prec
    iv.prec = bits
    try:
        lo, hi = getattr(iv, fn)(iv.mpf(x.numerator) / x.denominator)._mpi_
    finally:
        iv.prec = old
    return tuple(Fraction(int(p), int(q))
                 for p, q in (to_rational(lo), to_rational(hi)))


_rationals = st.builds(Fraction, st.integers(-3000, 3000),
                       st.integers(1, 10 ** 6))


# Each bracket must hold mpmath's bracket at twice its precision, which is
# far narrower than the kernel's rounding units: so it holds the true value,
# and it overlaps mpmath's bracket at the same precision
@settings(max_examples=150, deadline=None)
@given(_rationals)
def test_exp_bounds_hold_mpmath_within_relative_two_to_minus_bits(x):
    for bits in _LADDER:
        lo, hi = exp_bounds(x, bits)
        m_lo, m_hi = _mpmath_bracket("exp", x, 2 * bits)
        assert 0 < lo <= m_lo <= m_hi <= hi
        assert hi - lo <= lo / 2 ** bits


@settings(max_examples=150, deadline=None)
@given(_rationals.filter(lambda x: x > 0))
def test_log_bounds_hold_mpmath_within_two_to_minus_bits(x):
    for bits in _LADDER:
        lo, hi = log_bounds(x, bits)
        m_lo, m_hi = _mpmath_bracket("log", x, 2 * bits)
        assert lo <= m_lo <= m_hi <= hi
        assert hi - lo <= Fraction(1, 2 ** bits)


@pytest.mark.parametrize("x", [Fraction(1), Fraction(2), Fraction(1, 2),
                               Fraction(3, 4), Fraction(4, 3),
                               Fraction(2 ** 200 + 1, 2 ** 200),
                               Fraction(1, 3 ** 90)])
def test_log_bounds_at_the_reduction_edges(x):
    """y = x / 2^k lands on 1, just past 1 and just under 2."""
    for bits in _LADDER:
        lo, hi = log_bounds(x, bits)
        m_lo, m_hi = _mpmath_bracket("log", x, 2 * bits)
        assert lo <= m_lo <= m_hi <= hi
        assert hi - lo <= Fraction(1, 2 ** bits)


def _scaled(lo: Fraction, hi: Fraction, w: int) -> tuple[Fraction, Fraction]:
    return lo * Fraction(2) ** w, hi * Fraction(2) ** w


def test_kernel_brackets_hold_at_coarse_scales():
    """At a scale of a few bits the rounding losses are as large as the
    values, which the wide scales of the ladder never show."""
    xs = [Fraction(n, d) for d in (1, 2, 3, 7, 10) for n in range(0, 3 * d + 1)]
    for w in range(0, 24):
        for x in xs:
            lo, hi = bounds._exp_fixed(x, w)
            m_lo, m_hi = _scaled(*_mpmath_bracket("exp", x, 256), w)
            assert lo <= m_lo <= m_hi <= hi, (x, w)
            if x <= Fraction(1, 3):
                lo, hi = bounds._atanh_series(x.numerator, x.denominator, w)
                # atanh z = ln((1 + z) / (1 - z)) / 2
                m_lo, m_hi = _scaled(*_mpmath_bracket("log", (1 + x) / (1 - x), 256), w - 1)
                assert lo <= m_lo <= m_hi <= hi, (x, w)
