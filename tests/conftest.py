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


def _term_key(t):
    return t.modulus, t.offset, t.start


def _terms_meet(t1, t2):
    """Two infinite progressions share a member exactly when their offsets
    agree modulo the gcd of their moduli."""
    return (t1.offset - t2.offset) % math.gcd(t1.modulus, t2.modulus) == 0


def brute_ap_pair_terms(a, b, op):
    """The terms of a op b by a scan over every pair of terms, or None where
    terms alone cannot express it: union appends each term of b whose
    (modulus, offset, start) is not listed yet; difference drops every term
    of a identical to one of b and gives None once a pair that is not
    identical shares a member; intersection and symdiff give None."""
    if op == "union":
        merged = list(a.terms)
        for t in b.terms:
            if not any(_term_key(t) == _term_key(u) for u in merged):
                merged.append(t)
        return tuple(merged)
    if op != "difference":
        return None
    kill = set()
    for tb in b.terms:
        for i, ta in enumerate(a.terms):
            if _term_key(ta) == _term_key(tb):
                kill.add(i)
            elif _terms_meet(ta, tb):
                return None
    return tuple(t for i, t in enumerate(a.terms) if i not in kill)


def _brute_crt(m1, c1, m2, c2):
    """(lcm, c) with x ≡ c (lcm) the solutions of x ≡ c1 (m1), x ≡ c2 (m2),
    found by stepping through c1 + k·m1, or None when there are none."""
    l = math.lcm(m1, m2)
    for x in range(c1, c1 + l, m1):
        if x % m2 == c2:
            return l, x % l
    return None


def brute_intersections(terms):
    """Inclusion-exclusion entries (M, c, min_x, sign) of a term list: drop
    each term inside another (of two identical terms, the later one), then
    walk the remaining subsets depth first in term order, merging by the CRT
    and pruning a branch at its first empty intersection."""
    def inside(u, t):
        return (t.modulus % u.modulus == 0 and t.offset % u.modulus == u.offset
                and t.modulus * t.start + t.offset >= u.modulus * u.start + u.offset)

    kept = [t for i, t in enumerate(terms) if not any(
        inside(u, t) and (j < i or not inside(t, u))
        for j, u in enumerate(terms) if j != i)]
    out = []

    def walk(idx, M, c, mn, sign):
        for i in range(idx, len(kept)):
            t = kept[i]
            merged = _brute_crt(M, c, t.modulus, t.offset)
            if merged is None:
                continue
            mn2 = max(mn, t.modulus * t.start + t.offset)
            out.append((*merged, mn2, sign))
            walk(i + 1, *merged, mn2, -sign)

    walk(0, 1, 0, 0, 1)
    return tuple(out)


def periodic_field_table(s, hi):
    """Membership of each n < hi in a PeriodicSet, read from its fields: the
    residues marked period by period, then the listed exceptions."""
    table = bytearray(hi)
    for r in s.residues:
        table[r::s.modulus] = b"\x01" * len(range(r, hi, s.modulus))
    for x in s.added:
        table[x] = 1
    for x in s.removed:
        table[x] = 0
    return table


def brute_periodic_form(table, p, t):
    """(modulus, residues, threshold, added, removed) of the set whose
    membership of n < t + p is table[n] and which repeats table[t:t + p]
    with period p from t on: the residues from that one period, the
    exceptions from every natural below t, the threshold the least one
    above them."""
    residues = tuple(sorted({x % p for x in range(t, t + p) if table[x]}))
    rule = set(residues)
    added = tuple(x for x in range(t) if table[x] and x % p not in rule)
    removed = tuple(x for x in range(t) if not table[x] and x % p in rule)
    return p, residues, max(added + removed, default=-1) + 1, added, removed


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


def field_period(s):
    """(t, p, table) as ap_union_period gives it, for a PeriodicSet too:
    past its threshold t it repeats with its modulus p."""
    if isinstance(s, PeriodicSet):
        return s.threshold, s.modulus, periodic_field_table(s, s.threshold + s.modulus)
    return ap_union_period(s)


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


def brute_sup_ratio(members, weight, cut=0):
    """sup over k >= 1 of (sum of weight(i) over members i with cut <= i <= k)
    / (sum of weight(i) over 1 <= i <= k), every k up to max + 1 tried."""
    members = set(members)
    best = Fraction(0)
    num = den = Fraction(0)
    for k in range(1, max(members, default=0) + 2):
        den += weight(k)
        if k in members and k >= cut:
            num += weight(k)
        if den > 0:
            best = max(best, num / den)
    return best


def brute_block_ratio(members, cut=0):
    """max over the dyadic blocks I_j = [2^j, 2^(j+1)) of |{i in members :
    i >= cut} ∩ I_j| / 2^j, each member placed in its block one by one (0
    lies in no block; 0 when no block holds a member)."""
    counts = {}
    for i in members:
        if i >= max(cut, 1):
            j = i.bit_length() - 1
            counts[j] = counts.get(j, 0) + 1
    return max((Fraction(c, 2 ** j) for j, c in counts.items()), default=Fraction(0))


def brute_window_max(s, n, starts):
    """max over the starts k of |A ∩ [k, k+n)|, membership read point by
    point."""
    return max(brute_count(s, k, k + n) for k in starts)


def _run_window_max(elems, n, hard_end=None):
    """The longest-window count of ascending members, one start at a time;
    with hard_end, windows end by it, and the last one is [hard_end − n,
    hard_end)."""
    best, j = 0, 0
    for i, e in enumerate(elems):
        if hard_end is not None and e + n > hard_end:
            break
        while j < len(elems) and elems[j] < e + n:
            j += 1
        best = max(best, j - i)
    if hard_end is not None:
        best = max([best] + [sum(1 for e in elems if hard_end - n <= e < hard_end)])
    return best


def reference_window_max(a, n, config):
    """(max window count, exact?) by the per-start scan window_profile made
    before its member kernel: a two-pointer walk over the members, and one
    count_range per start over a whole period (t + m ≤ budget for a periodic
    set, t0 + l ≤ 4 × budget for an AP union) or over candidate starts past
    the budget. Kept as the reference the kernel must match, entry for entry
    and method for method."""
    from densitas.natset import finite_part

    fin = finite_part(a)
    if fin is not None:
        return _run_window_max(fin.elements, n), True
    if isinstance(a, HorizonSet):
        return _run_window_max(a.elements_in(0, a.horizon), n, a.horizon), True
    budget = config.window_sweep_budget
    if isinstance(a, PeriodicSet):
        t = a.threshold
        if t + a.modulus <= budget:
            return max(a.count_range(k, k + n) for k in range(t + a.modulus)), True
        ks = list(range(0, min(t, 64))) + [t + j for j in range(64)]
        return max(a.count_range(k, k + n) for k in ks), False
    if isinstance(a, APUnionSet):
        l, t0 = a.period(budget), a.threshold
        if l is not None and t0 + l <= 4 * budget:
            return max(a.count_range(k, k + n) for k in range(t0 + l)), True
        ks = {0, t0} | {t.min_element for t in a.terms} | set(a.extras)
        return max(a.count_range(k, k + n) for k in ks), False
    if a.slices_unbounded():
        blk = a.fill.threshold
        for m in range(blk, blk + 4 * max(len(a.fill.cycle), 1) + n.bit_length() + 64):
            if a.slice_len(m) >= n:
                return n, True
    return _run_window_max(a.elements_in(0, max(4 * n, 64)), n), False


def brute_pow2_ratio_sums(members, a0, bits=512):
    """(lo, hi) around sum over a <= a0 of 2^-a sup_k r_k(2^a), where
    r_k(e) = (sum of i^e over members 1 <= i <= k) / (sum of i^e over
    1 <= i <= k) and every k up to max + 1 is tried. Each (i/k)^(2^a) comes
    from squaring i/k a times in `bits`-bit fixed point, rounded down for lo
    and up for hi, so no integer grows past 2 * bits bits."""
    members = {x for x in members if x >= 1}
    lo_best, hi_best = [Fraction(0)] * (a0 + 1), [Fraction(0)] * (a0 + 1)
    for k in range(1, max(members, default=0) + 2):
        down = [(i << bits) // k for i in range(1, k + 1)]
        up = [-((-i << bits) // k) for i in range(1, k + 1)]
        for a in range(a0 + 1):
            if a:
                down = [x * x >> bits for x in down]
                up = [-((-x * x) >> bits) for x in up]
            num_lo = sum(x for i, x in enumerate(down, 1) if i in members)
            num_hi = sum(x for i, x in enumerate(up, 1) if i in members)
            lo_best[a] = max(lo_best[a], Fraction(num_lo, sum(up)))
            # the k-th term is exactly one either way, and r_k <= 1
            hi_best[a] = max(hi_best[a], min(Fraction(num_hi, sum(down)), Fraction(1)))
    weight = [Fraction(1, 2 ** a) for a in range(a0 + 1)]
    return (sum(w * r for w, r in zip(weight, lo_best)),
            sum(w * r for w, r in zip(weight, hi_best)))


def brute_prefix_ratios(members, hi):
    """(|A ∩ [1,n]| / n) for n = 1..hi-1, A given as a membership set."""
    out = []
    c = 0
    for n in range(1, hi):
        if n in members:
            c += 1
        out.append(Fraction(c, n))
    return out


def brute_tail_modulus(tail_bound, levels):
    """For each level k < levels, the least i with tail_bound(i) < 2^-k,
    every i tried from 0 up: the stages a certified modulus picks."""
    out = []
    for k in range(levels):
        i = 0
        while not tail_bound(i) < Fraction(1, 2 ** k):
            i += 1
        out.append(i)
    return out


def counting_oracle(oracle):
    """The oracle with every resolver call recorded: (wrapped, calls), where
    calls lists the chain each call was handed."""
    from densitas.limits import Ap0Oracle

    calls = []

    def resolve(chain, limit):
        calls.append(tuple(chain))
        return oracle.resolver(chain, limit)

    return Ap0Oracle(oracle.name, resolve), calls


def brute_least_cut(members, weight, target):
    """The least n in [0, max + 1] whose tail sup ratio (brute_sup_ratio at
    cut n) is at most the target, every cut tried; None if there is none."""
    for n in range(max(members, default=0) + 2):
        if brute_sup_ratio(members, weight, cut=n) <= target:
            return n
    return None


def brute_increment_tail_bound(schedule, start):
    """sum of Fraction(m, a_m!) over start <= m <= L, term by term, plus the
    geometric continuation (b/(1-x) + 1/(1-x)^2) / (c+1)! with x = 1/(c+2),
    b = max(L, start - 1) and c = a_L + (b - L), each step a Fraction."""
    last = len(schedule) - 1
    total = Fraction(0)
    for m in range(start, last + 1):
        total += Fraction(m, math.factorial(schedule[m]))
    b = max(last, start - 1)
    c = schedule[last] + (b - last)
    x = Fraction(1, c + 2)
    return total + (Fraction(b) / (1 - x) + 1 / (1 - x) ** 2) / math.factorial(c + 1)


def mp_fraction(expr, bits=640):
    """expr(mpmath) computed at `bits` bits, as the exact rational value of
    the mpf it returns: within a relative 2^-(bits - 8) of the true value."""
    import mpmath

    with mpmath.workprec(bits):
        man, exp = mpmath.mpf(expr(mpmath)).man_exp
    return Fraction(man) * Fraction(2) ** exp


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


def assert_column_matches_table(nu, seq, depth):
    """The column profile of a nested chain against the full pairwise
    table, which stays the reference. Either the column fell back to the
    table, and the reports are equal, or it holds one row, with the same
    certificate, note and modulus, and each member's largest distance to a
    later member is its distance to the last one. Returns whether the
    column path was taken."""
    from densitas.metric import cauchy_profile

    table = cauchy_profile(nu, seq, depth)
    column = cauchy_profile(nu, seq, depth, full_table=False)
    if len(column.table) == depth > 1:
        assert column == table
        return False
    assert len(column.table) == 1
    assert (column.certified, column.note, column.modulus) \
        == (table.certified, table.note, table.modulus)
    maxima = [max(v.value for v in row[i:]) for i, row in enumerate(table.table)]
    assert [v.value for v in column.table[0]] == maxima
    assert column.observed_max == table.observed_max
    return True
