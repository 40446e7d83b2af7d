"""Shared brute-force oracles for the test suite.

The structured backends are checked against the dumbest possible
implementation: enumerate membership up to a bound and count by hand.
Keeping these here (and nowhere near src/) is the point; the library must
never be verified against itself.
"""

import math
import random
from fractions import Fraction

import pytest

from densitas.natset import (
    APTerm,
    APUnionSet,
    DyadicBlockSet,
    FiniteSet,
    HorizonSet,
    PeriodicSet,
)


def brute_members(s, hi, lo=0):
    return {n for n in range(lo, hi) if s.member(n)}


def brute_count(s, lo, hi):
    return sum(1 for n in range(max(lo, 0), hi) if s.member(n))


def field_slice_len(fill, j):
    """Length of block j's member slice, round(f_j * 2^j) with halves up,
    in Fraction arithmetic straight from the fill rule."""
    return math.floor(fill.value(j) * 2 ** j + Fraction(1, 2))


def field_member(s, n):
    """Membership of n read from the set's fields, never through its read
    methods: the rule, then the listed exceptions."""
    if n < 0:
        return False
    if isinstance(s, FiniteSet):
        return n in s.elements
    if isinstance(s, HorizonSet):
        return n < s.horizon and bool(s.bits[n // 8] >> (n % 8) & 1)
    if isinstance(s, PeriodicSet):
        if n < s.threshold and n in s.added:
            return True
        if n < s.threshold and n in s.removed:
            return False
        return n % s.modulus in s.residues
    if n in s.removals:
        return False
    if n in s.extras:
        return True
    if isinstance(s, APUnionSet):
        return any(n >= t.modulus * t.start + t.offset and (n - t.offset) % t.modulus == 0
                   for t in s.terms)
    if isinstance(s, DyadicBlockSet):
        j = n.bit_length() - 1
        return n >= 1 and n - 2 ** j < field_slice_len(s.fill, j)
    raise TypeError(f"no field oracle for {type(s).__name__}")


def field_elements(s, lo, hi):
    """Sorted members in [lo, hi) by field_member, one natural at a time."""
    return [n for n in range(max(lo, 0), hi) if field_member(s, n)]


def ap_union_period(s):
    """(t, p, table) for an AP union, read from its fields: past t every term
    has started and no extra or removal is left, p is the lcm of the moduli,
    and table[n] is membership of n for n < t + p, marked term by term."""
    t = max([u.modulus * u.start + u.offset for u in s.terms]
            + [x + 1 for x in s.extras + s.removals] + [0])
    p = math.lcm(*(u.modulus for u in s.terms)) if s.terms else 1
    table = bytearray(t + p)
    for u in s.terms:
        first = u.modulus * u.start + u.offset
        table[first::u.modulus] = b"\x01" * len(range(first, t + p, u.modulus))
    for x in s.extras:
        table[x] = 1
    for x in s.removals:
        table[x] = 0
    return t, p, table


def brute_periodic_count(period, lo, hi):
    """|A ∩ [lo, hi)| from an ap_union_period table: whole periods past t
    count table[t:t+p] each."""
    t, p, table = period

    def below(n):
        if n <= t + p:
            return sum(table[:max(n, 0)])
        q, r = divmod(n - t, p)
        return sum(table[:t + r]) + q * sum(table[t:t + p])
    return max(0, below(hi) - below(max(lo, 0)))


def brute_geometric(period):
    """sum of 2^-(x+1) over the members: the head below t plus the period
    block [t, t+p) repeated, a geometric series of ratio 2^-p."""
    t, p, table = period
    bits = int("".join("1" if b else "0" for b in table), 2)
    head, block = divmod(bits, 1 << p)
    return Fraction(head, 1 << t) + Fraction(block, 1 << (t + p)) * Fraction(1 << p, (1 << p) - 1)


def brute_power_sum(k, e):
    """sum of i**e for i = 1..k, term by term (0 when k < 1)."""
    return sum(i ** e for i in range(1, k + 1))


def brute_prefix_ratios(members, hi):
    """(|A ∩ [1,n]| / n) for n = 1..hi-1, A given as a membership set."""
    out = []
    c = 0
    for n in range(1, hi):
        if n in members:
            c += 1
        out.append(Fraction(c, n))
    return out


def random_structured_set(rng: random.Random):
    """A small random set drawn from the exactly-evaluable backends."""
    k = rng.randrange(4)
    if k in (0, 3):
        return FiniteSet(tuple(rng.randrange(50) for _ in range(rng.randrange(8))))
    if k == 1:
        m = rng.randrange(2, 9)
        rs = tuple(sorted(rng.sample(range(m), rng.randrange(1, m))))
        t = rng.randrange(0, 12)
        base = PeriodicSet(m, rs)
        added = ()
        removed = ()
        if t:
            pool = rng.sample(range(t), min(3, t))
            added = tuple(x for x in pool if not base.rule_member(x))[:2]
            removed = tuple(x for x in pool if base.rule_member(x) and x not in added)[:2]
        return PeriodicSet(m, rs, t, added, removed)
    terms = tuple(
        APTerm(rng.randrange(2, 9), rng.randrange(0, 9), rng.randrange(0, 3))
        for _ in range(rng.randrange(1, 4))
    )
    return APUnionSet(terms)


@pytest.fixture
def rng():
    return random.Random(0xD5)
