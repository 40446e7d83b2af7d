import dataclasses
import math
import operator
import random
import re
import time
import tracemalloc
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densitas.exceptions import (
    IncompatibleBackends,
    ModulusBudgetExceeded,
    NoValidCut,
    ParseError,
    QueryBeyondHorizon,
    UnsupportedBackend,
)
from densitas.config import DEFAULT_CONFIG
from densitas import density as density_module
from densitas.density import check_upper_density_axioms, geometric_measure
from densitas.natset import (
    APTerm,
    APUnionSet,
    DyadicBlockSet,
    EMPTY,
    FillRule,
    FiniteSet,
    HorizonSet,
    NatSet,
    OMEGA,
    PeriodicSet,
    as_ap_union,
    boolean_op,
    complement,
    drop_below,
    format_set,
    least_member,
    normalize_periodic,
    parse_set,
    round_half_up,
    transform,
)
from densitas.natset import _BLOCKS_CACHED, _SIZE_MAX, _TAIL_MAX, _ap_pair_terms, _is_sparse
from densitas.reports import to_payload
from densitas.samples import pool_battery
from conftest import (
    ap_union_period,
    brute_ap_pair_terms,
    brute_count,
    brute_geometric,
    brute_intersections,
    brute_members,
    brute_periodic_count,
    brute_periodic_form,
    field_elements,
    field_member,
    field_slice_len,
    periodic_field_table,
    random_structured_set,
)


HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def sample_sets():
    return [
        FiniteSet(()),
        FiniteSet((3, 1, 4, 1, 5, 9, 2, 6)),
        PeriodicSet(2, (0,)),
        PeriodicSet(6, (1, 3), 7, (0,), (1,)),
        APUnionSet((APTerm(4, 0), APTerm(6, 3)), extras=(1,), removals=(12,)),
        APUnionSet((APTerm(6, 1, 1),)),
        DyadicBlockSet(FillRule.cycled([HALF, QUARTER])),
        DyadicBlockSet(FillRule.vanishing(lambda n: Fraction(1, n), "1/n"), extras=(0, 3), removals=(4,)),
        HorizonSet.from_members(64, [0, 5, 9, 33, 63]),
    ]


def test_count_range_matches_brute_force():
    rng = random.Random(11)
    for s in sample_sets():
        members = brute_members(s, 64)
        for _ in range(150):
            lo = rng.randrange(0, 64)
            hi = rng.randrange(0, 65)
            assert s.count_range(lo, hi) == sum(1 for x in members if lo <= x < hi)
        assert s.elements_in(0, 64) == sorted(members)


def test_count_range_is_additive():
    rng = random.Random(12)
    for s in sample_sets():
        for _ in range(60):
            lo = rng.randrange(0, 60)
            mid = rng.randrange(lo, 62)
            hi = rng.randrange(mid, 64)
            assert s.count_range(lo, mid) + s.count_range(mid, hi) == s.count_range(lo, hi)


def test_periodic_count_far_from_origin():
    p = PeriodicSet(12, (0, 3, 4, 8, 9))
    lo, hi = 10**12, 10**12 + 10**4
    direct = sum(1 for x in range(lo, hi) if x % 12 in (0, 3, 4, 8, 9))
    assert p.count_range(lo, hi) == direct


def test_horizon_queries_raise_beyond_horizon():
    h = HorizonSet.from_members(16, [2, 3])
    assert h.member(2) and not h.member(4)
    with pytest.raises(QueryBeyondHorizon):
        h.member(16)
    with pytest.raises(QueryBeyondHorizon):
        h.count_range(0, 17)
    assert h.count_range(0, 16) == 2


def test_periodic_exception_validation():
    with pytest.raises(ValueError):
        PeriodicSet(6, (1,), 7, added=(1,))  # 1 is already a rule member
    with pytest.raises(ValueError):
        PeriodicSet(6, (1,), 7, removed=(2,))  # 2 is not a rule member
    with pytest.raises(ValueError):
        PeriodicSet(6, (1,), 3, added=(5,))  # exception beyond threshold


def test_public_constructor_errors_are_unchanged():
    cases = [
        ((0, (0,)), "modulus must be >= 1"),
        ((4, (1, 4)), "residues must lie in [0, modulus)"),
        ((4, (2, -1)), "elements must be naturals"),
        ((6, (1,), 7, (1,)), "added exception 1 must be < threshold and not a rule member"),
        ((6, (3, 1), 7, (), (2,)), "removed exception 2 must be < threshold and a rule member"),
        ((6, (1,), 3, (5,)), "added exception 5 must be < threshold and not a rule member"),
        ((6, (1,), 3, (), (7,)), "removed exception 7 must be < threshold and a rule member"),
        ((6, (1,), 3, (), (-5,)), "elements must be naturals"),
    ]
    for args, text in cases:
        with pytest.raises(ValueError) as info:
            PeriodicSet(*args)
        assert str(info.value) == text


def test_non_integral_elements_are_refused_not_truncated():
    for make in (lambda: FiniteSet((Fraction(5, 2), 2.9, True, "7")),
                 lambda: FiniteSet((1, 2.0)),
                 lambda: PeriodicSet(4, (2.7,)),
                 lambda: PeriodicSet(4, (1,), 5, (Fraction(2),)),
                 lambda: APUnionSet((APTerm(2, 0),), extras=(3.5,)),
                 lambda: DyadicBlockSet(FillRule.constant(HALF), removals=("4",))):
        with pytest.raises(ValueError, match="elements must be naturals"):
            make()
    # a bool is an integer to Python's indexing, and is stored as 0 or 1
    f = FiniteSet((True, 2, False, 1))
    assert f.elements == (0, 1, 2) and all(type(x) is int for x in f.elements)
    assert repr(f) == "FiniteSet(elements=(0, 1, 2))"
    p = PeriodicSet(2, (True,), 3, (False,))
    assert p == PeriodicSet(2, (1,), 3, (0,)) and type(p.residues[0]) is int


def test_apterm_canonicalizes_offset():
    t = APTerm(5, 13, 2)
    assert (t.modulus, t.offset, t.start) == (5, 3, 4)
    assert t.min_element == 23


def test_normalize_single_tail_progression():
    u = APUnionSet((APTerm(6, 1, 1),))  # {6j+1 : j >= 1}
    p = normalize_periodic(u)
    assert (p.modulus, p.residues, p.threshold, p.added, p.removed) == (6, (1,), 2, (), (1,))
    assert brute_members(p, 80) == brute_members(u, 80)


def test_normalize_union_of_two_progressions():
    u = APUnionSet((APTerm(4, 0), APTerm(6, 3)))
    p = normalize_periodic(u)
    assert (p.modulus, p.residues) == (12, (0, 3, 4, 8, 9))
    assert (p.threshold, p.added, p.removed) == (0, (), ())
    assert p.density() == Fraction(5, 12)


def test_normalize_respects_modulus_budget():
    u = APUnionSet((APTerm(2**20, 1), APTerm(3**13, 2)))
    cfg = DEFAULT_CONFIG.with_overrides(modulus_budget=10**6)
    with pytest.raises(ModulusBudgetExceeded):
        normalize_periodic(u, cfg)


def _rule_bytes(s):
    """The rule table of a periodic set from its fields: byte r is 1 iff r
    is one of its residues."""
    rule = set(s.residues)
    return bytes(r in rule for r in range(s.modulus))


def _assert_form(got, want):
    """got has the fields want = (modulus, residues, threshold, added,
    removed), an empty rule coming back as the FiniteSet of its added
    exceptions; a rule table the result carries matches its residues."""
    if not want[1]:
        assert got == FiniteSet(want[3])
        return
    assert (got.modulus, got.residues, got.threshold, got.added, got.removed) == want
    assert got._table_cache in (None, _rule_bytes(got))


# moduli from divisor chains as well, so terms nest inside and overlap each other
@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(APTerm, st.one_of(st.integers(1, 12), st.sampled_from((2, 4, 8, 24))),
                          st.integers(0, 40), st.integers(0, 30)),
                min_size=1, max_size=4),
       st.lists(st.integers(0, 150), max_size=8, unique=True), st.data())
def test_normalize_matches_the_threshold_scan(terms, pool, data):
    split = data.draw(st.integers(0, len(pool)))
    u = APUnionSet(tuple(terms), tuple(pool[:split]), tuple(pool[split:]))
    # every natural below the threshold and one period past it, from the fields
    t, p, table = ap_union_period(u)
    _assert_form(normalize_periodic(u), brute_periodic_form(table, p, t))


def test_normalize_reads_a_million_removals():
    u = parse_set("ap a=2 h=2000001")  # the odd numbers from 2000001 on
    p = normalize_periodic(u)
    assert len(p.removed) == 10 ** 6
    hi = p.threshold + 10
    added, removed = set(p.added), set(p.removed)
    members = [n for n in range(hi) if n in added
               or (n % p.modulus in p.residues and n not in removed)]
    assert members == field_elements(u, 0, hi)


def test_a_large_table_result_answers_member_reads_from_its_table():
    # the complement keeps its 3 MB rule table; member and rule_member read
    # one byte of it and build neither the residue tuple nor its index,
    # which would hold three million ints
    for text in ("per m=3000000 R={0}", "per m=3000000 R={0} t=5 add={1,2}"):
        a = parse_set(text)
        c = complement(a)
        assert c._table_cache is not None and c._residue_set is None
        far = (2999999, 3000000, 3000001, 6000000, 9000007)
        reads = (*range(-1, 12), *far)
        tracemalloc.start()
        try:
            got = brute_members(c, 12, lo=-1) | {n for n in far if c.member(n)}
            rules = [c.rule_member(n) for n in reads]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == {n for n in reads if n >= 0 and not field_member(a, n)}
        assert rules == [n % 3000000 != 0 for n in reads]
        assert c._residue_set is None and "residues" not in vars(c)
        assert peak < 10 * 2 ** 20


def test_normalize_refuses_too_many_exception_points():
    u = parse_set("ap a=2 h=100000000000000000000")
    t0 = time.perf_counter()
    with pytest.raises(ModulusBudgetExceeded):
        normalize_periodic(u)
    assert time.perf_counter() - t0 < 1.0


def test_boolean_ops_match_brute_force():
    rng = random.Random(13)
    for _ in range(250):
        a = random_structured_set(rng)
        b = random_structured_set(rng)
        wa, wb = brute_members(a, 200), brute_members(b, 200)
        expect = {
            "union": wa | wb,
            "intersection": wa & wb,
            "difference": wa - wb,
            "symdiff": wa ^ wb,
        }
        for op, want in expect.items():
            assert brute_members(boolean_op(a, b, op), 200) == want


def test_symdiff_of_nested_ap_unions_matches_brute_force():
    # with one operand inside the other one difference is empty and the
    # symmetric difference is the other one, as between nested stages
    rng = random.Random(23)
    pairs = [(APUnionSet((APTerm(6, 1),)), APUnionSet((APTerm(6, 1), APTerm(10, 3)), (0,))),
             (APUnionSet((APTerm(4, 1, 2),), (0, 2), (13,)), APUnionSet((APTerm(2, 1),), (0, 2)))]
    while len(pairs) < 120:
        x, y = random_structured_set(rng), random_structured_set(rng)
        if isinstance(x, APUnionSet) and isinstance(y, (APUnionSet, PeriodicSet)):
            pairs += [(x, boolean_op(x, y, "union")), (boolean_op(x, y, "intersection"), y)]
    for a, b in pairs:
        assert all(field_member(b, n) for n in range(200) if field_member(a, n))
        want = {n for n in range(200) if field_member(a, n) != field_member(b, n)}
        assert brute_members(boolean_op(a, b, "symdiff"), 200) == want, (a, b)
        assert brute_members(boolean_op(b, a, "symdiff"), 200) == want, (a, b)


def test_boolean_op_self_is_identity_or_empty():
    for s in sample_sets():
        assert boolean_op(s, s, "union") == s
        assert boolean_op(s, s, "intersection") == s
        assert boolean_op(s, s, "difference").is_empty_surely()
        assert boolean_op(s, s, "symdiff").is_empty_surely()


def test_block_set_absorbs_finite_operands():
    b = DyadicBlockSet(FillRule.constant(HALF))
    f = FiniteSet((2, 3, 100))
    u = boolean_op(b, f, "union")
    assert isinstance(u, DyadicBlockSet)
    assert brute_members(u, 128) == brute_members(b, 128) | {2, 3, 100}
    d = boolean_op(b, f, "difference")
    assert brute_members(d, 128) == brute_members(b, 128) - {2, 3, 100}


def test_blocks_with_blocks_is_incompatible():
    a = DyadicBlockSet(FillRule.constant(HALF))
    b = DyadicBlockSet(FillRule.constant(QUARTER))
    with pytest.raises(IncompatibleBackends):
        boolean_op(a, b, "union")


def test_factorial_scale_term_difference_stays_exact():
    # term-level analysis must not materialize lcm(9!, 13!)
    t13 = APTerm(math.factorial(13), 5, 0, "13!")
    t9 = APTerm(math.factorial(9), 1, 0, "9!")
    big = APUnionSet((t13, t9))
    small = APUnionSet((t9,))
    diff = boolean_op(big, small, "difference")
    assert isinstance(diff, APUnionSet)
    assert diff.terms == (t13,)
    sym = boolean_op(big, small, "symdiff")
    assert brute_members(sym, 4 * 10**4) == brute_members(big, 4 * 10**4) - brute_members(small, 4 * 10**4)


def test_ap_union_density_inclusion_exclusion():
    u = APUnionSet((APTerm(4, 0), APTerm(6, 3)))
    assert u.density() == Fraction(5, 12)
    v = APUnionSet((APTerm(2, 0), APTerm(3, 0), APTerm(5, 0)))
    # 1/2 + 1/3 + 1/5 - 1/6 - 1/10 - 1/15 + 1/30
    assert v.density() == Fraction(11, 15)
    w = APUnionSet((APTerm(4, 1), APTerm(4, 3)))  # disjoint residues
    assert w.density() == Fraction(1, 2)


def test_contained_and_repeated_terms_add_no_intersections():
    # every term lies inside j0=0, so the enumeration is one entry, not 2^30 - 1
    s = parse_set(" | ".join(f"ap a=2 h=0 j0={j}" for j in range(30)))
    assert len(s._intersections) == 1
    assert s.density() == HALF
    assert s.count_range(0, 100) == 50
    # the repeat of 6j+4 and 6j+4 from 22 on are left out; 6j+4 itself starts
    # before 3j+1 from 7 on, so it is not inside it and stays
    u = APUnionSet((APTerm(3, 1, 2), APTerm(6, 4), APTerm(6, 4, 0, "6"), APTerm(6, 4, 3)))
    assert u._intersections == ((3, 1, 7, 1), (6, 4, 7, -1), (6, 4, 4, 1))
    assert u.count_range(0, 60) == 19


# divisor-chain moduli, as the witness levels have, pairwise coprime ones,
# and ones whose pairwise gcd is neither modulus
_CHAIN = (1, 2, 6, 12, 60, 360)
_COPRIME = (3, 5, 7, 11, 13)
_CROSSED = (4, 6, 10, 15)


@st.composite
def _overlapping_terms(draw):
    """A few terms, each with the variants that test the identity of terms:
    the same progression under a label, a later start of it, and a term
    inside it."""
    moduli = draw(st.sampled_from((_CHAIN, _COPRIME, _CROSSED)))
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        m = draw(st.sampled_from(moduli))
        t = APTerm(m, draw(st.integers(0, m - 1)), draw(st.integers(0, 2)))
        k = draw(st.sampled_from((2, 3)))
        pool += [t, APTerm(m, t.offset, t.start, label="same"),
                 APTerm(m, t.offset, t.start + 1),
                 APTerm(m * k, t.offset + m * draw(st.integers(0, k - 1)), t.start + 1)]
    return pool


@st.composite
def _disjoint_terms(draw):
    """Pairwise-disjoint terms on the divisor chain, level by level as the
    witness picks its residues: each avoids every earlier term's class."""
    terms = []
    for m in _CHAIN[1:draw(st.integers(2, len(_CHAIN)))]:
        free = [r for r in range(m) if all(r % t.modulus != t.offset for t in terms)]
        if free:
            terms += [APTerm(m, r, draw(st.integers(0, 2))) for r in
                      draw(st.lists(st.sampled_from(free), max_size=3, unique=True))]
    return terms


@st.composite
def _term_operands(draw):
    """Two AP unions drawn from one pool, with repeats; empty ones too, and
    pairs where the second lists every term of the first, as nested stages
    do."""
    pool = draw(st.one_of(_overlapping_terms(), _disjoint_terms()))
    pick = st.lists(st.sampled_from(pool), max_size=8) if pool else st.just([])
    a, b = draw(pick), draw(pick)
    if draw(st.booleans()):
        b = a + b
    if draw(st.booleans()):
        a, b = b, a
    return APUnionSet(tuple(a)), APUnionSet(tuple(b))


@pytest.mark.parametrize("op", ("union", "difference", "intersection"))
@settings(max_examples=200, deadline=None)
@given(_term_operands())
@example((APUnionSet((APTerm(6, 1),)), APUnionSet((APTerm(10, 3),))))  # 1 ≡ 3 mod 2
@example((APUnionSet((APTerm(6, 1),)), APUnionSet((APTerm(10, 4),))))
def test_ap_pair_terms_match_the_pairwise_scan(op, operands):
    # the same terms with the same labels in the same order, or None alike
    a, b = operands
    assert _ap_pair_terms(a, b, op) == brute_ap_pair_terms(a, b, op)


@settings(max_examples=300, deadline=None)
@given(_term_operands())
def test_ap_union_intersections_match_the_depth_first_walk(operands):
    for s in operands:
        entries = brute_intersections(s.terms)
        assert s._intersections == entries
        assert s.density() == sum((Fraction(sign, M) for M, _, _, sign in entries), Fraction(0))


def test_complement_returns_the_shrunk_form_of_difference():
    a = parse_set("per m=2 R={0} t=4")
    assert complement(a) == boolean_op(OMEGA, a, "difference") == parse_set("per m=2 R={1}")
    assert complement(OMEGA) == boolean_op(OMEGA, OMEGA, "difference") == EMPTY
    assert boolean_op(parse_set("per m=4 R={0,2}"), parse_set("per m=2 R={0}"),
                      "difference") == EMPTY


def test_complement_round_trip():
    rng = random.Random(14)
    for _ in range(80):
        a = random_structured_set(rng)
        c = complement(a)
        assert brute_members(c, 150) == set(range(150)) - brute_members(a, 150)


def test_drop_below_matches_brute_force():
    rng = random.Random(15)
    for _ in range(120):
        a = random_structured_set(rng)
        n = rng.randrange(0, 60)
        d = drop_below(a, n)
        assert brute_members(d, 200) == {x for x in brute_members(a, 200) if x >= n}


def test_drop_below_deep_cut_is_cheap():
    p = PeriodicSet(4, (1, 2), 5, (4,), (2,))
    cut = 10**9 + 3
    d = drop_below(p, cut)
    lo = 10**9
    assert d.count_range(lo, lo + 100) == sum(
        1 for x in range(cut, lo + 100) if x % 4 in (1, 2))
    assert d.count_range(0, cut) == 0


def test_drop_below_refuses_deep_cuts_on_block_sets():
    # a block set keeps its members below the cut as removals; a cut of 2^22
    # used to take seconds and store 2^21 of them
    b = parse_set("blocks f(n)=1/2")
    t = time.perf_counter()
    with pytest.raises(NoValidCut):
        drop_below(b, 1 << 22)
    assert time.perf_counter() - t < 1.0
    d = drop_below(b, 100)
    assert brute_members(d, 300) == {x for x in brute_members(b, 300) if x >= 100}


def test_transforms_match_brute_force():
    p = PeriodicSet(3, (0,), 4, (1,), (3,))
    for kind, amt in [("shift", 2), ("shift", 7), ("dilate", 2), ("dilate", 5)]:
        q = transform(p, kind, amt)
        if kind == "shift":
            want = {x + amt for x in brute_members(p, 140) if x + amt < 140}
        else:
            want = {x * amt for x in brute_members(p, 140) if x * amt < 140}
        assert brute_members(q, 140) == want
    u = APUnionSet((APTerm(4, 1, 2),), extras=(0,))
    s = transform(u, "shift", 3)
    assert brute_members(s, 100) == {x + 3 for x in brute_members(u, 97)}


def test_periodic_shift_refuses_more_removals_than_a_literal_holds():
    # a shift removes the rule's members below h, and a removal list holds
    # at most _SIZE_MAX naturals: evens + (2^21 + 1) still fits, one more
    # step does not, and the refusal comes before the removals are built
    evens = PeriodicSet(2, (0,))
    at_cap = transform(evens, "shift", 2 * _SIZE_MAX + 1)
    assert at_cap.removed == tuple(range(1, 2 * _SIZE_MAX + 1, 2))
    t = time.perf_counter()
    for a, h in ((evens, 2 * _SIZE_MAX + 2), (evens, 10 ** 12),
                 (PeriodicSet(2, (0,), 3, (), (0, 2)), 2 * _SIZE_MAX - 1)):
        with pytest.raises(ModulusBudgetExceeded):
            transform(a, "shift", h)
    assert time.perf_counter() - t < 0.1
    assert len(transform(PeriodicSet(2, (0,), 3, (), (0, 2)), "shift",
                         2 * _SIZE_MAX - 3).removed) == _SIZE_MAX
    # the upper-density battery skips a law whose transform is refused
    rep = check_upper_density_axioms("d-star", [evens], shifts=(1, 10 ** 12), dilations=())
    assert [r.status for r in rep.records if r.name.startswith("shift")] == ["pass", "skip"]


def test_horizon_transform_refuses_a_horizon_wider_than_a_literal_holds():
    # a horizon literal is at most _SIZE_MAX wide, so format_set of a wider
    # result would print a literal parse_set rejects
    h2 = parse_set("horizon H=2 bits=1")
    for a, kind, x in ((h2, "shift", 2 ** 21), (h2, "shift", _SIZE_MAX - 1),
                       (parse_set("horizon H=524289 bits=1"), "dilate", 2)):
        with pytest.raises(ModulusBudgetExceeded):
            transform(a, kind, x)
    wide = transform(h2, "shift", _SIZE_MAX - 2)
    assert wide.horizon == _SIZE_MAX and parse_set(format_set(wide)) == wide


def test_dilation_of_evens():
    e = PeriodicSet(2, (0,))
    d = transform(e, "dilate", 3)
    assert brute_members(d, 90) == {6 * k for k in range(15)}
    assert d.density() if hasattr(d, "density") else True
    assert normalize_periodic(as_ap_union(d)).density() == Fraction(1, 6)


def test_block_transform_unsupported():
    b = DyadicBlockSet(FillRule.constant(HALF))
    with pytest.raises(UnsupportedBackend):
        transform(b, "shift", 1)


def test_round_half_up():
    assert round_half_up(Fraction(1, 2)) == 1
    assert round_half_up(Fraction(3, 2)) == 2
    assert round_half_up(Fraction(5, 2)) == 3
    assert round_half_up(Fraction(1, 3)) == 0
    assert round_half_up(Fraction(2, 3)) == 1
    assert round_half_up(Fraction(7)) == 7


def test_block_slice_lengths():
    b = DyadicBlockSet(FillRule.cycled([HALF, QUARTER]))
    # block 0 = [1,2): fill 1/2 of length 1 -> round_half_up(1/2) = 1
    assert b.slice_len(0) == 1
    assert b.slice_len(1) == 1  # 1/4 * 2 = 1/2 -> 1
    assert b.slice_len(2) == 2  # 1/2 * 4
    assert b.slice_len(3) == 2  # 1/4 * 8
    assert not b.member(0)  # 0 sits in no block
    assert b.member(1)


def test_block_extra_at_zero_is_a_member():
    # 0 lies in no block, so only an extra makes it a member; the extras
    # must be read before the rule rejects 0
    for fill in (FillRule.constant(HALF), FillRule.vanishing(lambda n: Fraction(1, n), "1/n")):
        s = DyadicBlockSet(fill, extras=(0,))
        assert s.member(0) and s.count_range(0, 1) == 1 and s.elements_in(0, 1) == [0]
        assert not DyadicBlockSet(fill).member(0)


_CAP_FILLS = [
    FillRule.cycled([HALF, Fraction(3, 8), 0, 1], 3, [1, 0, HALF]),  # a head, then a cycle
    FillRule.vanishing(lambda n: Fraction(1, n), "1/n"),
    FillRule.vanishing(lambda n: Fraction(1, 2 ** n), "2^-n", slice_growth="bounded"),
]
# block starts below, at and past the cap, where reads change membership
_CAP_BLOCKS = (0, 1, 2, 5) + tuple(_BLOCKS_CACHED + k for k in (-2, -1, 0, 1, 40))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_CAP_FILLS), st.data())
def test_block_reads_match_the_field_oracle_across_the_cache_cap(fill, data):
    # exceptions at 0 and at block starts; reads in drawn order, so the
    # slice ends are cached from any first block
    starts = [1 << j for j in _CAP_BLOCKS]
    pool = data.draw(st.lists(st.sampled_from([0, 3] + starts), max_size=5, unique=True))
    split = data.draw(st.integers(0, len(pool)))
    s = DyadicBlockSet(fill, tuple(pool[:split]), tuple(pool[split:]))
    anchors = [0] + starts + [(1 << j) + field_slice_len(fill, j) for j in _CAP_BLOCKS]
    for _ in range(4):
        anchor = data.draw(st.sampled_from(anchors))
        lo, hi = anchor - data.draw(st.integers(0, 40)), anchor + data.draw(st.integers(-5, 40))
        want = field_elements(s, lo, hi)
        assert [n for n in range(max(lo, 0), hi) if s.member(n)] == want
        assert s.count_range(lo, hi) == len(want)
        assert s.elements_in(max(lo, 0), hi) == want
    j = data.draw(st.sampled_from(_CAP_BLOCKS))
    assert s.slice_len(j) == field_slice_len(fill, j)
    # the cache holds the ends of blocks below the cap and nothing past it
    assert len(s._ends) <= _BLOCKS_CACHED + 1
    assert s._ends == [0] + [(1 << j) + field_slice_len(fill, j)
                             for j in range(len(s._ends) - 1)]


def test_fill_rule_validation():
    with pytest.raises(ValueError):
        FillRule.constant(Fraction(3, 2))
    with pytest.raises(ValueError):
        FillRule.vanishing(lambda n: Fraction(n, n + 1), "n/(n+1)")  # increasing
    with pytest.raises(ValueError):
        FillRule(structure="weird")


def test_dsl_round_trips():
    texts = [
        "fin{1,2,3}",
        "fin{}",
        "fin{0..9}",
        "per m=6 R={1} t=2 rm={1}",
        "per m=12 R={0,3,4,8,9} t=0",
        "ap a=720 h=1 j0=1",
        "ap a=6! h=3 j0=0 | ap a=4 h=0 j0=0",
        "blocks f(n)=cycle{1/2,1/4}",
        "blocks f(n)=1/n",
        "blocks f(n)=2^-3",
        "horizon H=16 bits=ff00",
    ]
    for text in texts:
        s = parse_set(text)
        assert parse_set(format_set(s)) == s


def test_dsl_factorial_modulus():
    s = parse_set("ap a=6! h=3 j0=0")
    assert s.terms[0].modulus == 720
    assert s.terms[0].label == "6!"
    assert "a=6!" in format_set(s)


def test_dilated_factorial_labels_round_trip():
    # a dilation labels its term k*N!, and the grammar reads that label back
    a = parse_set("ap a=4! h=1")
    for k in (2, 3):
        a = transform(a, "dilate", k)
        b = parse_set(format_set(a))
        assert b == a and b.terms[0].label == a.terms[0].label
    assert format_set(a) == "ap a=3*2*4! h=6 j0=0"
    assert a.terms[0].modulus == 144
    spaced = parse_set("ap a=2 * 4! h=1").terms[0]
    assert (spaced.modulus, spaced.label) == (48, "2*4!")
    # a product needs its factorial, within the factorial and digit limits
    for text in ("ap a=2*3 h=1", "ap a=2*1001! h=1", "ap a=2* h=1",
                 f"ap a={'9' * 4000}*1000! h=1"):
        with pytest.raises(ParseError):
            parse_set(text)


def test_dsl_range_literal():
    assert parse_set("fin{4..7}") == FiniteSet((4, 5, 6, 7))
    # ranges are materialized: reversed ones and any list spelling out more
    # than 2^20 naturals are refused before anything is built
    for text in ("fin{5..4}", "fin{0..1048576}", "fin{0..1000000000000}",
                 "fin{0..600000,0..600000}", "fin{0..1048575,1048576}", "fin{5,0..1048575}"):
        with pytest.raises(ParseError):
            parse_set(text)
    # the limit counts plain naturals too, on the one-match path as well:
    # 2^20 of them parse, one more is refused at the first one past it
    top = list(range(_SIZE_MAX))
    assert parse_set("fin{0..1048575}").elements == tuple(top)
    assert parse_set(f"fin{{{','.join(map(str, top))}}}").elements == tuple(top)
    for sep in (",", " , "):
        text = f"fin{{{sep.join(map(str, top + [7]))} }}"
        with pytest.raises(ParseError, match="a list spells out at most 1048576 naturals") as ei:
            parse_set(text)
        assert text[ei.value.position:] == "7 }"


_LONG_NAT = "1" + "0" * 4300
# 2^20 plain naturals and one bad item: the plain run is read in one piece
_LONG_LIST = "fin{" + ",".join(map(str, range(1 << 20))) + ",x}"
_LONG_MODULUS = "9" * 4000 + "*1000!"
# (literal, message, caret column): one or more per raise site of the parser
_PARSE_ERRORS = [
    ("nonsense", "expected one of fin/per/ap/blocks/horizon", 0),
    ("  ", "expected one of fin/per/ap/blocks/horizon", 2),
    ("fin 1,2}", "expected '{'", 4),
    ("fin{1,2", "expected ','", 7),
    ("fin{1 2}", "expected ','", 6),
    ("fin{1..2..3}", "expected ','", 8),
    ("fin{1..}", "expected a natural number", 7),
    ("fin{,1}", "expected a natural number", 4),
    # an item that breaks a run of plain ones, and the run's end
    ("fin{1,2,3 4,5}", "expected ','", 10),
    ("fin{1,,2}", "expected a natural number", 6),
    (f"fin{{1,{_LONG_NAT},2}}",
     "a natural of 4301 digits exceeds the literal limit of 4300 digits", 6),
    (_LONG_LIST, "expected a natural number", len(_LONG_LIST) - 2),
    ("per m =6 R={1}", "expected 'm='", 4),
    ("per m=6 R {1}", "expected 'R='", 8),
    ("per m=x R={1}", "expected a natural number", 6),
    ("\tper\nm=6 R={1}\xa0t=x", "expected a natural number", 17),
    ("per m=6 R={1} rm={", "expected a natural number", 18),
    ("ap h=1", "expected 'a='", 3),
    ("ap a=2 j=1", "expected 'h='", 7),
    ("ap a=2 h=1 | per m=2 R={0}", "expected 'ap'", 13),
    ("ap a=2* h=1", "expected a natural number", 8),
    ("ap a=2 h=1 j0=", "expected a natural number", 14),
    ("blocks f(n) = 1/2", "expected 'f(n)='", 7),
    ("blocks f(n)=cycle 1/2}", "expected '{'", 18),
    ("blocks f(n)=cycle{1/2,1/4", "expected '}'", 25),
    ("blocks f(n)=x", "expected a fill rule: p/q, 2^-k, cycle{..}@t, 1/n or 2^-n", 12),
    # U+00B2 is a digit to str.isdigit but not a decimal natural: no fill rule
    ("blocks f(n)=²", "expected a fill rule: p/q, 2^-k, cycle{..}@t, 1/n or 2^-n", 12),
    ("blocks f(n)=1/ n", "expected a natural number", 15),
    ("horizon bits=ff", "expected 'H='", 8),
    ("horizon H=8 ff", "expected 'bits='", 12),
    ("horizon H=8 bits=xyz", "expected hex bits", 17),
    (f"fin{{{_LONG_NAT}}}",
     "a natural of 4301 digits exceeds the literal limit of 4300 digits", 4),
    ("ap a=1001! h=0", "1001! exceeds the factorial limit 1000!", 5),
    ("ap a=2*3 h=1", "a product modulus ends in a factorial N!", 9),
    (f"ap a={_LONG_MODULUS} h=1", "a modulus of more than 4300 digits", 5),
    ("blocks f(n)=2^-14001", "2^-14001 exceeds the dyadic limit 2^-14000", 15),
    ("horizon H=1048577 bits=0", "1048577 exceeds the literal size limit 1048576", 10),
    ("blocks f(n)=cycle{1/2}@1048577", "1048577 exceeds the literal size limit 1048576", 23),
    ("fin{5..4}", "reversed range 5..4", 4),
    ("fin{0..1048576}", "a list spells out at most 1048576 naturals", 4),
    ("fin{0..600000,0..600000}", "a list spells out at most 1048576 naturals", 14),
    # a plain natural counts as one, before a range or after it
    ("fin{0..1048575,1048576}", "a list spells out at most 1048576 naturals", 15),
    ("fin{5,0..1048575}", "a list spells out at most 1048576 naturals", 6),
    ("blocks f(n)=1/0", "zero denominator", 14),
    ("blocks f(n)=cycle{1/2,1/0}", "zero denominator", 24),
    ("horizon H=4 bits=ff", "bits set at or beyond the horizon", 17),
    ("fin{1} x", "trailing input after set literal", 7),
    ("fin{1}\xa0　!", "trailing input after set literal", 8),
    ("blocks f(n)=1/nx", "trailing input after set literal", 15),
    ("per m=6 R={1,9}", "residues must lie in [0, modulus)", 0),
    ("per m=6 R={1} t=2 add={7}",
     "added exception 7 must be < threshold and not a rule member", 0),
    ("ap a=0 h=1", "term modulus must be >= 1", 0),
    ("ap a=2 h=1 | ap a=0 h=1", "term modulus must be >= 1", 13),
    ("blocks f(n)=cycle{3/2}", "fill values must lie in [0, 1]", 12),
    ("blocks f(n)=3/2", "fill values must lie in [0, 1]", 12),
]


def test_parse_errors_keep_message_and_caret():
    for text, message, column in _PARSE_ERRORS:
        with pytest.raises(ParseError) as ei:
            parse_set(text)
        assert str(ei.value) == f"{message}\n  {text}\n  {' ' * column}^", text[:40]
        assert ei.value.position == column


def test_fill_rules_compare_by_value():
    a, b = parse_set("blocks f(n)=1/2"), parse_set("blocks f(n)=cycle{1/2}")
    assert a.fill.func_label != b.fill.func_label
    assert a == b and hash(a) == hash(b)
    assert parse_set("blocks f(n)=1/n") != parse_set("blocks f(n)=2^-n")
    assert parse_set("blocks f(n)=cycle{1/2}@2") != a


def test_format_refuses_a_nonzero_fill_head():
    fill = FillRule.cycled([Fraction(1, 3), 0, Fraction(3, 4)], threshold=2, head=(1, 0))
    a = DyadicBlockSet(fill)
    assert sorted(brute_members(a, 8)) == [1, 4]
    # the label cycle{1/3,0,3/4}@2 would parse to a zero head: elements [4]
    with pytest.raises(UnsupportedBackend):
        format_set(a)


def test_format_refuses_a_natural_past_the_digit_limit():
    # a transform can build a natural no literal holds; format_set names
    # its digit count rather than failing in Python's int-to-str limit
    cases = ((transform(parse_set("per m=2 R={0}"), "dilate", 10 ** 4400), 4401),
             (transform(parse_set("ap a=2 h=1"), "shift", 10 ** 4400), 4400),
             (FiniteSet((10 ** 4300,)), 4301))
    for a, digits in cases:
        with pytest.raises(UnsupportedBackend,
                           match=f"a natural of {digits} digits exceeds the literal limit"):
            format_set(a)
    # the largest natural a literal holds still round-trips
    top = FiniteSet((10 ** 4300 - 1,))
    assert parse_set(format_set(top)) == top


def test_dilating_a_factorial_label_past_the_digit_limit_is_refused():
    # the label k*4! would print k, which no literal holds: transform names
    # its digit count instead of failing in Python's int-to-str limit
    labelled = parse_set("ap a=4! h=1")
    with pytest.raises(UnsupportedBackend,
                       match="a natural of 4401 digits exceeds the literal limit"):
        transform(labelled, "dilate", 10 ** 4400)
    # below the limit the label is built; format_set then judges the modulus
    top = transform(labelled, "dilate", 10 ** 4300 - 1)
    assert top.terms[0].label == f"{10 ** 4300 - 1}*4!"
    with pytest.raises(UnsupportedBackend, match="a natural of 4302 digits"):
        format_set(top)
    small = transform(labelled, "dilate", 10 ** 40)
    assert parse_set(format_set(small)) == small
    # an unlabelled term takes any factor
    bare = transform(parse_set("ap a=24 h=1"), "dilate", 10 ** 4400)
    assert bare.terms[0].modulus == 24 * 10 ** 4400


def _periodic(m, residues, t, picks):
    base = PeriodicSet(m, residues)
    below = [x for x in picks if x < t]
    return PeriodicSet(m, residues, t, [x for x in below if not base.rule_member(x)],
                       [x for x in below if base.rule_member(x)])


# (extras, removals): half the draws carry none, so both outcomes are common
_EXCEPTIONS = st.one_of(st.just((set(), set())),
                        st.tuples(st.sets(st.integers(0, 40), max_size=3),
                                  st.sets(st.integers(0, 40), max_size=3)))
_RATS = st.fractions(min_value=0, max_value=1, max_denominator=12)
_FILLS = st.one_of(
    _RATS.map(FillRule.constant),
    st.builds(FillRule.cycled, st.lists(_RATS, min_size=1, max_size=3),
              st.integers(0, 4), st.lists(st.sampled_from((0, HALF, 1)), max_size=4)),
    st.sampled_from([
        FillRule.vanishing(lambda n: Fraction(1, n), "1/n"),
        FillRule.vanishing(lambda n: Fraction(1, 2 ** n), "2^-n", slice_growth="bounded"),
        FillRule.vanishing(lambda n: Fraction(1, n), "1/n^1"),
    ]),
)
_MODULI = st.one_of(st.integers(1, 12).map(lambda a: (a, None)),
                    st.sampled_from([(6, "3!"), (24, "4!"), (720, "6!"), (48, "2*4!")]))
_SETS = st.one_of(
    st.lists(st.integers(0, 200), max_size=8).map(lambda xs: FiniteSet(tuple(xs))),
    st.integers(0, 70).flatmap(lambda h: st.sets(st.integers(0, max(h - 1, 0)), max_size=h).map(
        lambda xs: HorizonSet.from_members(h, xs))),
    st.integers(1, 12).flatmap(lambda m: st.builds(
        _periodic, st.just(m), st.sets(st.integers(0, m - 1)).map(tuple), st.integers(0, 20),
        st.lists(st.integers(0, 19), max_size=4))),
    st.builds(lambda terms, exc: APUnionSet(tuple(terms), tuple(exc[0]), tuple(exc[1] - exc[0])),
              st.lists(st.builds(lambda a, h, j0: APTerm(a[0], h, j0, a[1]), _MODULI,
                                 st.integers(0, 30), st.integers(0, 3)), max_size=3),
              _EXCEPTIONS),
    st.builds(lambda fill, exc: DyadicBlockSet(fill, tuple(exc[0]), tuple(exc[1] - exc[0])),
              _FILLS, _EXCEPTIONS),
)


@settings(max_examples=300, deadline=None)
@given(_SETS)
def test_format_parse_round_trip(a):
    try:
        text = format_set(a)
    except UnsupportedBackend:
        return
    b = parse_set(text)
    assert b == a
    hi = a.horizon if isinstance(a, HorizonSet) else 300
    assert brute_members(b, hi) == brute_members(a, hi)


# where a token starts in a printed literal: a key with its '=', a keyword,
# a natural or one punctuation mark
_TOKEN_START = re.compile(r"[A-Za-z]+\d*=|[a-z]+|\d+|\S")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.data())
def test_parse_accepts_whitespace_before_any_token(seed, data):
    a = random_structured_set(random.Random(seed))
    try:
        text = format_set(a)
    except UnsupportedBackend:
        return
    assert parse_set(text) == a
    starts = [m.start() for m in _TOKEN_START.finditer(text)] + [len(text)]
    inserts = data.draw(st.lists(st.tuples(st.sampled_from(starts),
                                           st.sampled_from((" ", "\t", "\n", "\xa0"))),
                                 max_size=8))
    for at, space in sorted(inserts, reverse=True):
        text = text[:at] + space + text[at:]
    assert parse_set(text) == a


def test_parse_time_is_linear_in_whitespace_runs():
    # a failed brace-list match gives back each whitespace run once; a
    # backtracking pattern would take minutes on these
    run = " " * 200_000
    t0 = time.perf_counter()
    for text, message in ((f"fin{{1{run}", "expected ','"),
                          (f"fin{{1,{run}", "expected a natural number"),
                          (f"fin{{{run}", "expected a natural number")):
        with pytest.raises(ParseError, match=message):
            parse_set(text)
    assert parse_set(f"fin{{1{run}..3{run}}}") == FiniteSet((1, 2, 3))
    assert time.perf_counter() - t0 < 3.0


def test_parse_reads_decimal_digits_of_any_script():
    assert parse_set("fin{١٢}") == FiniteSet((12,))
    assert parse_set("fin {1}") == FiniteSet((1,))
    assert parse_set("per m=６ R={١, 3}") == PeriodicSet(6, (1, 3))


@settings(max_examples=300, deadline=None)
@given(_SETS, _SETS)
def test_boolean_op_matches_pointwise_membership(a, b):
    horizons = [s.horizon for s in (a, b) if isinstance(s, HorizonSet)]
    hi = min(horizons, default=300)
    wa, wb = brute_members(a, hi), brute_members(b, hi)
    expect = {"union": wa | wb, "intersection": wa & wb,
              "difference": wa - wb, "symdiff": wa ^ wb}
    for op, want in expect.items():
        try:
            c = boolean_op(a, b, op)
        except (IncompatibleBackends, QueryBeyondHorizon, ModulusBudgetExceeded):
            continue
        assert brute_members(c, hi) == want, op


_BOOL_OPS = {"union": operator.or_, "intersection": operator.and_,
             "difference": lambda x, y: x and not y, "symdiff": operator.xor}
# lcm up to about 10^5; a few residues (the set lift, mostly) and about half
# of them, inverted or not (the mask lift); thresholds up to 60 with add=/rm=
# exceptions below them
_MASK_SETS = st.integers(1, 400).flatmap(lambda m: st.builds(
    _periodic, st.just(m),
    st.one_of(st.lists(st.integers(0, m - 1), max_size=4),
              st.builds(lambda w, dense: tuple(r for r in range(m) if (w >> r & 1) != dense),
                        st.integers(0, (1 << m) - 1), st.booleans())),
    st.integers(0, 60), st.lists(st.integers(0, 59), max_size=6)))


@settings(max_examples=40, deadline=None)
@given(_MASK_SETS, _MASK_SETS)
def test_periodic_algebra_matches_the_brute_form(a, b):
    l, t = math.lcm(a.modulus, b.modulus), max(a.threshold, b.threshold)
    ta, tb = periodic_field_table(a, t + l), periodic_field_table(b, t + l)
    if a != b:  # equal operands come back as they are
        for op, f in _BOOL_OPS.items():
            want = brute_periodic_form(bytes(map(f, ta, tb)), l, t)
            _assert_form(boolean_op(a, b, op), want)
    for s, table in ((a, ta), (b, tb)):
        want = brute_periodic_form(bytes(1 - x for x in table), s.modulus, s.threshold)
        _assert_form(complement(s), want)


def test_pair_op_lifts_by_set_or_mask_from_the_lifted_count():
    # 6 + 6 residues lifted to l = 12 take rule tables, and the result keeps
    # its own
    dense = boolean_op(PeriodicSet(4, (0, 1)), PeriodicSet(6, (0, 1, 2)), "union")
    assert dense.residues == (0, 1, 2, 4, 5, 6, 7, 8, 9)
    assert dense._table_cache == _rule_bytes(dense)
    # 3 + 2 residues lifted to l = 120 take sets, and no table is built
    a, b = PeriodicSet(40, (0,)), PeriodicSet(60, (1,))
    sparse = boolean_op(a, b, "union")
    assert sparse.residues == (0, 1, 40, 61, 80)
    assert (a._table_cache, b._table_cache, sparse._table_cache) == (None, None, None)
    u = normalize_periodic(APUnionSet((APTerm(40, 0), APTerm(60, 1))))
    assert u == sparse and u._table_cache is None
    v = normalize_periodic(APUnionSet(tuple(
        APTerm(m, h) for m, h in ((4, 0), (4, 1), (6, 0), (6, 1), (6, 2)))))
    assert v == dense and v._table_cache == dense._table_cache


def test_sparse_rules_at_factorial_lcm_stay_cheap():
    # a rule table at l = 10! or 12! is megabytes to gigabytes; a few
    # residues per period lift as a set in no time
    f10, f11, f12 = (math.factorial(k) for k in (10, 11, 12))
    t = time.perf_counter()
    got = boolean_op(parse_set("ap a=9! h=0"), parse_set("ap a=10! h=0"), "intersection")
    assert got == PeriodicSet(f10, (0,)) and got._table_cache is None
    a, b = PeriodicSet(f12, (0,)), PeriodicSet(f11, (1,))
    assert boolean_op(a, b, "intersection") == EMPTY
    assert boolean_op(a, b, "union").residues == (0,) + tuple(range(1, f12, f11))
    assert normalize_periodic(APUnionSet((APTerm(f12, 0), APTerm(f11, 1)))).modulus == f12
    assert (a._table_cache, b._table_cache) == (None, None)
    assert time.perf_counter() - t < 5.0


@st.composite
def _lift_pairs(draw, sides=st.booleans()):
    """(sparse, a, b): two periodic sets with exceptions whose lifted residue
    count falls on the side of _is_sparse drawn from `sides`. One or two
    residues on consecutive (so coprime) moduli from 17 on lift as sets; at
    least a quarter of the residues on moduli up to 12 lift as rule tables."""
    sparse = draw(sides)
    if sparse:
        m = draw(st.integers(17, 40))
        moduli = (m, m + 1)
    else:
        moduli = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    sets = []
    for m in moduli:
        size = draw(st.integers(1, 2) if sparse else st.integers(-(-m // 4), m))
        residues = draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size,
                                 unique=True))
        sets.append(_periodic(m, residues, draw(st.integers(0, 30)),
                              draw(st.lists(st.integers(0, 29), max_size=5))))
    return sparse, sets[0], sets[1]


@settings(max_examples=150, deadline=None)
@given(_lift_pairs(), st.integers(0, 50), st.integers(1, 5),
       st.lists(st.integers(0, 60), max_size=6))
def test_kernel_periodic_results_equal_their_public_rebuild(case, h, k, picks):
    # the kernel's results are taken as they are, unchecked, so each one is
    # rebuilt here through the validating public constructor
    sparse, a, b = case
    l = math.lcm(a.modulus, b.modulus)
    assert _is_sparse(len(a.residues) * (l // a.modulus) + len(b.residues) * (l // b.modulus),
                      l) == sparse
    fa, fb = partial(field_member, a), partial(field_member, b)
    u = APUnionSet(tuple(APTerm(s.modulus, r, (r + s.threshold) % 3)
                         for s in (a, b) for r in s.residues),
                   a.added, tuple(x for x in b.added if x not in a.added))
    # (result, membership, whether the rule table kernel built it): a
    # complement always flips a table, a transform maps the residue tuple,
    # and a pair op or a normalization of the same lifted count lifts as
    # tables exactly when it is dense
    results = [(complement(a), lambda n: not fa(n), True),
               (normalize_periodic(u), partial(field_member, u), not sparse)]
    if a != b:  # equal operands come back as they are
        results += [(boolean_op(a, b, op), lambda n, f=f: bool(f(fa(n), fb(n))), not sparse)
                    for op, f in _BOOL_OPS.items()]
    # a finite operand, on either side, rewrites the periodic operand's
    # exceptions; a finite set complemented or normalized has modulus 1
    fin = FiniteSet(picks)
    in_fin = fin.elements.__contains__
    for op in ("union", "difference", "symdiff"):
        f = _BOOL_OPS[op]
        results += [(boolean_op(a, fin, op), lambda n, f=f: bool(f(fa(n), in_fin(n))), False),
                    (boolean_op(fin, a, op), lambda n, f=f: bool(f(in_fin(n), fa(n))), False)]
    # a table operand answers a finite operand's reads from its table, and a
    # periodic result keeps that table: neither builds its residue tuple
    comp = results[0][0]
    if isinstance(comp, PeriodicSet):
        fc = results[0][1]
        for op, f in _BOOL_OPS.items():
            results += [(boolean_op(comp, fin, op), lambda n, f=f: bool(f(fc(n), in_fin(n))), True),
                        (boolean_op(fin, comp, op), lambda n, f=f: bool(f(in_fin(n), fc(n))), True)]
        # a periodic result of a finite operand shares comp's table object
        # and takes its residue count rather than counting the table again
        for got, _, _ in results[-2 * len(_BOOL_OPS):]:
            if isinstance(got, PeriodicSet):
                assert got._table_cache is comp._table_cache
                assert got._residue_count == comp._residue_count
        assert "residues" not in vars(comp) and comp._residue_set is None
    results += [(complement(fin), lambda n: not in_fin(n), False),
                (normalize_periodic(fin), in_fin, False),
                (normalize_periodic(APUnionSet((), fin.elements, (61,))), in_fin, False)]
    # a transform keeps the threshold it maps; every other result's lies
    # just past its exceptions
    flipped = boolean_op(a, fin, "symdiff")  # exceptions wherever fin meets a's rule
    fl = partial(field_member, flipped)
    moved = [(transform(s, "shift", h), lambda n, g=g: n >= h and g(n - h), False)
             for s, g in ((a, fa), (flipped, fl))]
    moved += [(transform(s, "dilate", k), lambda n, g=g: n % k == 0 and g(n // k), False)
              for s, g in ((a, fa), (flipped, fl))]
    for got, want, tabled in results + moved:
        if not isinstance(got, PeriodicSet):  # an empty rule: a FiniteSet
            assert not got.elements or got.elements[-1] < 200
            assert all(got.member(n) == want(n) for n in range(200))
            continue
        # a table result keeps its table and count, and builds neither the
        # residue tuple nor its index until a read needs them; a tuple
        # result waits for its index, exceptions or not
        if tabled:
            assert "residues" not in vars(got) and got._residue_set is None
            assert got._residue_count == got._table_cache.count(1) > 0
        else:
            assert "residues" in vars(got) and got._table_cache is None
            assert got._residue_set is None
            assert got._residue_count == len(got.residues)
        # the kernel hands its exceptions over sorted and distinct, and the
        # public constructor, residues and exceptions reversed, builds the
        # same set, eagerly indexed
        for xs in (got.added, got.removed):
            assert list(xs) == sorted(set(xs))
        if not any(got is x for x, _, _ in moved):
            assert got.threshold == max(got.added + got.removed, default=-1) + 1
        again = PeriodicSet(got.modulus, got.residues[::-1], got.threshold,
                            got.added[::-1], got.removed[::-1])
        assert again == got and hash(again) == hash(got) and repr(again) == repr(got)
        assert to_payload(again) == to_payload(got)
        assert dataclasses.replace(got) == got
        if tabled:
            assert got._table_cache == _rule_bytes(got)
        assert again._residue_set == frozenset(got.residues)
        reads = range(got.threshold + min(got.modulus, 300) + 2)
        for n in reads:  # each read the first: a table answers it, a tuple
            # result builds its index
            object.__setattr__(got, "_residue_set", None)
            assert got.member(n) == want(n) == field_member(got, n)
            object.__setattr__(got, "_residue_set", None)
            assert got.rule_member(n) == (n % got.modulus in got.residues)
        assert got._residue_set == (None if tabled else frozenset(got.residues))
        object.__setattr__(got, "_residue_set", frozenset(got.residues))
        for n in reads:  # the index built
            assert got.member(n) == want(n)
            assert got.rule_member(n) == (n % got.modulus in got.residues)


def _table_kernel_results(a, b):
    """Fresh rule-table results of two dense operands, each with the field
    form (modulus, residues, threshold, added, removed) of the same set from
    the brute tables: both complements, the four pair ops when a != b, and
    the normalized union of their terms. Empty rules (FiniteSets) are left
    out."""
    l, t = math.lcm(a.modulus, b.modulus), max(a.threshold, b.threshold)
    ta, tb = periodic_field_table(a, t + l), periodic_field_table(b, t + l)
    u = APUnionSet(tuple(APTerm(s.modulus, r, (r + s.threshold) % 3)
                         for s in (a, b) for r in s.residues))
    out = [(complement(s), brute_periodic_form(bytes(1 - x for x in table), s.modulus,
                                               s.threshold))
           for s, table in ((a, ta), (b, tb))]
    if a != b:  # equal operands come back as they are
        out += [(boolean_op(a, b, op), brute_periodic_form(bytes(map(f, ta, tb)), l, t))
                for op, f in _BOOL_OPS.items()]
    ut, up, utable = ap_union_period(u)
    out.append((normalize_periodic(u), brute_periodic_form(utable, up, ut)))
    return [(got, form) for got, form in out if form[1]]


@settings(max_examples=60, deadline=None)
@given(_lift_pairs(st.just(False)))
def test_table_results_read_like_their_public_rebuild(case):
    # every read gives what the public constructor's set gives, both while
    # the residue tuple is unbuilt and after; density and the emptiness test
    # read the kept count, member and rule_member the kept table, and none
    # of them builds it
    _, a, b = case
    hi = max(a.threshold, b.threshold) + 2 * math.lcm(a.modulus, b.modulus) + 3
    spans = [(0, hi), (1, hi // 2), (hi // 3, hi), (hi // 2, hi // 2 + 1)]
    reads = [lambda s: s, hash, repr, to_payload,
             lambda s: [s.count_range(lo, hi) for lo, hi in spans],
             lambda s: [s.elements_in(lo, hi) for lo, hi in spans]]
    unbuilt = [lambda s: s.density(), lambda s: s.is_empty_surely(),
               lambda s: [s.member(n) for n in range(-1, hi)],
               lambda s: [s.rule_member(n) for n in range(-1, hi)]]
    for read in unbuilt + reads:
        for got, form in _table_kernel_results(a, b):
            assert got._table_cache is not None and "residues" not in vars(got)
            assert read(got) == read(PeriodicSet(*form))
            assert ("residues" in vars(got)) == (read not in unbuilt)
    for got, form in _table_kernel_results(a, b):
        assert got.residues == form[1] and "residues" in vars(got)
        assert got._table_cache == _rule_bytes(got)
        for read in unbuilt + reads:
            assert read(got) == read(PeriodicSet(*form))


def test_a_battery_call_leaves_dense_unions_unread(monkeypatch):
    # the upper-density battery reads each union through its density
    # alone, so a union the rule table kernel built never builds its
    # residue tuple
    unions = []

    def recording_op(*args):
        unions.append(boolean_op(*args))
        return unions[-1]

    monkeypatch.setattr(density_module, "boolean_op", recording_op)
    for chunk in (pool_battery(3, seed) for seed in range(1, 6)):
        rep = check_upper_density_axioms("d-star", chunk, shifts=(1, 7, 100),
                                         dilations=(2, 3, 5))
        assert rep.passed and unions
    assert any(isinstance(u, PeriodicSet) and u._table_cache is not None
               and "residues" not in vars(u) for u in unions)


# Reads far from the origin and at factorial scale: anchors are points where
# membership changes (residues, term starts, slice ends, exceptions), and each
# read window straddles one of them.
_FAR = 10 ** 30
_READ_MODULI = st.one_of(st.integers(1, 40),
                         st.sampled_from([math.factorial(k) for k in (5, 9, 13, 20, 25)]))


def _exception_pool(draw, below):
    """Up to six distinct naturals below `below`, the exceptions to be."""
    return draw(st.lists(st.integers(0, below - 1), max_size=6, unique=True)) if below else []


@st.composite
def _finite_reads(draw):
    xs = draw(st.lists(st.one_of(st.integers(0, 300), st.integers(_FAR, _FAR + 300)),
                       max_size=40))
    return FiniteSet(tuple(xs)), [0] + xs


@st.composite
def _periodic_reads(draw):
    m = draw(_READ_MODULI)
    residues = draw(st.lists(st.integers(0, m - 1), max_size=6))
    t = draw(st.integers(0, 60))
    pool = _exception_pool(draw, t)
    added = tuple(x for x in pool if x % m not in residues)
    removed = tuple(x for x in pool if x % m in residues)
    s = PeriodicSet(m, tuple(residues), t, added, removed)
    return s, [0, t] + pool + [q * m + r for r in residues for q in (0, 1, _FAR // m)]


@st.composite
def _ap_union_reads(draw):
    terms = draw(st.lists(st.builds(APTerm, _READ_MODULI, st.integers(0, 80),
                                    st.integers(0, 3)), min_size=1, max_size=3))
    pool = _exception_pool(draw, 200)
    split = draw(st.integers(0, len(pool)))
    s = APUnionSet(tuple(terms), tuple(pool[:split]), tuple(pool[split:]))
    starts = [t.min_element for t in terms]
    far = [t.offset + t.modulus * (_FAR // t.modulus) for t in terms]
    return s, [0] + pool + starts + far


@st.composite
def _block_reads(draw):
    fill = draw(_FILLS)
    pool = _exception_pool(draw, 300)
    split = draw(st.integers(0, len(pool)))
    s = DyadicBlockSet(fill, tuple(pool[:split]), tuple(pool[split:]))
    blocks = [1, 2, 3, 5, 8, 100, 101]
    ends = [(1 << j) + field_slice_len(fill, j) for j in blocks]
    return s, [0] + pool + [1 << j for j in blocks] + ends


@settings(max_examples=400, deadline=None)
@given(st.one_of(_finite_reads(), _periodic_reads(), _ap_union_reads(), _block_reads()),
       st.data())
def test_reads_match_the_field_oracle(case, data):
    s, anchors = case
    anchor = data.draw(st.sampled_from(anchors + [_FAR]))
    lo = anchor - data.draw(st.integers(-20, 120))
    hi = anchor + data.draw(st.integers(-20, 120))
    want = field_elements(s, lo, hi)
    assert [n for n in range(max(lo, 0), hi) if s.member(n)] == want
    assert s.count_range(lo, hi) == len(want)
    assert s.elements_in(max(lo, 0), hi) == want


@st.composite
def _ap_union_terms(draw):
    """Overlapping, nested, same-residue and repeated terms, some with
    factorial moduli."""
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("fresh", "nested", "same-residue", "repeated"))
                    if terms else st.just("fresh"))
        if kind == "fresh":
            m, label = draw(st.one_of(st.integers(1, 12).map(lambda a: (a, None)),
                                      st.sampled_from([(math.factorial(k), f"{k}!")
                                                       for k in (3, 4, 5, 6, 7)])))
            terms.append(APTerm(m, draw(st.integers(0, m - 1)), draw(st.integers(0, 3)), label))
            continue
        u = draw(st.sampled_from(terms))
        if kind == "repeated":
            terms.append(u)
        elif kind == "nested":  # a sub-progression of u
            k = draw(st.integers(2, 4))
            terms.append(APTerm(u.modulus * k, u.offset + u.modulus * draw(st.integers(0, k - 1)),
                                draw(st.integers(0, 3))))
        else:
            terms.append(APTerm(u.modulus, u.offset, draw(st.integers(0, 4))))
    pool = _exception_pool(draw, 60)
    split = draw(st.integers(0, len(pool)))
    return APUnionSet(tuple(terms), tuple(pool[:split]), tuple(pool[split:]))


@settings(max_examples=200, deadline=None)
@given(_ap_union_terms(), st.data())
def test_ap_union_intersection_reads_match_the_brute_oracle(s, data):
    # count_range, density and the geometric measure read one cached
    # inclusion-exclusion tuple; each is checked against member counts
    period = ap_union_period(s)
    t, p, table = period
    assert s.density() == Fraction(sum(table[t:]), p)
    geo = geometric_measure(s)
    if geo.status == "exact":
        assert geo.value == brute_geometric(period)
    else:
        assert geo.lower <= brute_geometric(period) <= geo.upper
    for _ in range(3):
        lo = data.draw(st.one_of(st.integers(-5, t + 2 * p), st.integers(_FAR, _FAR + p)))
        hi = lo + data.draw(st.integers(-5, 3 * p + 10))
        assert s.count_range(lo, hi) == brute_periodic_count(period, lo, hi)


@settings(max_examples=200, deadline=None)
@given(_ap_union_terms(), st.data())
def test_ap_union_prefix_counts_match_the_brute_oracle(s, data):
    # the batch read walks each inclusion-exclusion entry once over all the
    # points: brute counts near the rule's start, count_range far past it
    period = ap_union_period(s)
    t, p, _ = period
    near = sorted(data.draw(st.sets(st.integers(-3, t + 2 * p), max_size=20)))
    far = sorted(data.draw(st.sets(st.integers(_FAR, _FAR + 3 * p), max_size=8)))
    assert s.prefix_counts(near + far) == (
        [brute_periodic_count(period, 0, m) for m in near]
        + [s.count_range(0, m) for m in far])
    assert NatSet.prefix_counts(s, near) == s.prefix_counts(near)


@settings(max_examples=200, deadline=None)
@given(_ap_union_terms(), st.data())
def test_ap_union_tail_table_reads_match_the_field_oracle(s, data):
    # past the threshold member reads one byte of the tail table; a twin
    # whose table is forced absent passes over the terms instead
    bare = dataclasses.replace(s)
    object.__setattr__(bare, "_tail_cache", b"")
    t, p, table = ap_union_period(s)
    for _ in range(3):
        anchor = data.draw(st.sampled_from([0, t, t + p, _FAR]))
        lo, hi = anchor - data.draw(st.integers(0, 80)), anchor + data.draw(st.integers(-5, 80))
        want = field_elements(s, lo, hi)
        for u in (s, bare):
            assert [n for n in range(lo, hi) if u.member(n)] == want
            assert u.count_range(lo, hi) == len(want)
            assert u.elements_in(max(lo, 0), hi) == want
    if s._tail_cache is not None:  # built by a read past the threshold
        assert s._tail_cache == bytes(table[t + (-t) % p:t + p] + table[t:t + (-t) % p])
    assert bare._tail_cache == b""


def test_tail_table_stays_unbuilt_above_its_caps():
    # factorial moduli: the lcm passes the cap, and every read passes over
    # the terms, as does a union lifting to more residues than the cap
    f999 = math.factorial(999)
    s = parse_set("ap a=1000! h=1 | ap a=999! h=2")
    for n in (0, 1, 2, f999 + 2, 2 * f999 + 2, 1000 * f999 + 1, 1000 * f999 + 2, 10 ** 3000):
        assert s.member(n) == field_member(s, n)
    assert s._tail_cache == b""
    dense = APUnionSet((APTerm(1, 0, 5), APTerm(2, 1), APTerm(_TAIL_MAX, 3)))
    assert [n for n in range(3 * _TAIL_MAX, 3 * _TAIL_MAX + 20) if dense.member(n)] == \
        field_elements(dense, 3 * _TAIL_MAX, 3 * _TAIL_MAX + 20)
    assert dense._tail_cache == b""
    # one term of modulus _TAIL_MAX lifts to one residue: the table is built
    sparse = APUnionSet((APTerm(_TAIL_MAX, 3),))
    assert sparse.member(_TAIL_MAX + 3) and not sparse.member(_TAIL_MAX + 4)
    assert len(sparse._tail_cache) == _TAIL_MAX


@settings(max_examples=200, deadline=None)
@given(_ap_union_terms())
# l = _TAIL_MAX, with 2^19 + 2^18 + 1 lifted residues
@example(APUnionSet((APTerm(2, 1, 3), APTerm(4, 2), APTerm(_TAIL_MAX, 4, 1))))
def test_dense_normalization_keeps_the_tail_table_bytes(s):
    # a union whose terms lift to at least l / 4 residues normalizes through
    # a rule table; it is the same table the tail reads build
    l = math.lcm(*(t.modulus for t in s.terms))
    p = normalize_periodic(s)
    if not s.terms or _is_sparse(sum(l // t.modulus for t in s.terms), l):
        assert getattr(p, "_table_cache", None) is None
        return
    assert l <= _TAIL_MAX and p.modulus == l
    assert p._table_cache == s._tail_table() == _rule_bytes(p)


def test_member_returns_a_bool_on_every_backend():
    far = [_FAR, _FAR + 1, 10 ** 3000]
    for s in sample_sets() + [parse_set("ap a=1000! h=1 | ap a=999! h=2")]:
        reads = range(-3, 64) if isinstance(s, HorizonSet) else [*range(-3, 64), *far]
        assert all(type(s.member(n)) is bool for n in reads)


def test_read_caches_follow_replace():
    for s in (APUnionSet((APTerm(4, 1),), extras=(2,), removals=(5,)),
              DyadicBlockSet(FillRule.constant(HALF), extras=(6,), removals=(4,)),
              PeriodicSet(6, (1, 3), 7, (0,), (1,))):
        # caches built
        assert s.count_range(0, 40) == len(field_elements(s, 0, 40)) == \
            sum(s.member(n) for n in range(40))
        if isinstance(s, PeriodicSet):  # the rule table is rebuilt, not copied
            assert complement(s) and s._table_cache == b"\x00\x01\x00\x01\x00\x00"
            t = dataclasses.replace(s, residues=(2, 3), added=(1,), removed=(3,))
            assert t._table_cache is None
            assert complement(t) and t._table_cache == b"\x00\x00\x01\x01\x00\x00"
            # a kernel result builds its residue index on its first read;
            # replace goes through the public constructor, which builds it
            # at once
            k = transform(PeriodicSet(6, (1, 3)), "dilate", 1)
            assert k._residue_set is None
            assert dataclasses.replace(k)._residue_set == frozenset({1, 3})
            kt = dataclasses.replace(k, residues=(2, 3), threshold=7, added=(1,),
                                     removed=(3,))
            assert kt == t and kt._residue_set == frozenset({2, 3})
            assert k.member(1) and k._residue_set == frozenset({1, 3})
        elif isinstance(s, APUnionSet):  # new terms: a fresh intersection tuple
            assert s._tail_cache == b"\x00\x01\x00\x00"
            t = dataclasses.replace(s, terms=s.terms + (APTerm(6, 3),),
                                    extras=(3, 7), removals=(2, 9, 5))
            assert (t._intersection_cache, t._tail_cache) == (None, None)
        else:  # a new fill: fresh slice ends
            assert len(s._ends) == 7
            t = dataclasses.replace(s, fill=FillRule.cycled([QUARTER, 1]),
                                    extras=(3, 7), removals=(2, 9, 5))
            assert t._ends == [0]
        for u in (s, t):
            want = field_elements(u, 0, 40)
            assert [n for n in range(40) if u.member(n)] == want
            assert u.count_range(0, 40) == len(want)
            assert u.elements_in(0, 40) == want
        assert field_elements(s, 0, 40) != field_elements(t, 0, 40)


def test_equal_sets_from_different_routes_compare_and_hash_equal():
    pairs = [
        (FiniteSet((3, 1, 2, 3)), FiniteSet((1, 2, 3))),
        (parse_set("per m=6 R={3,1}"), PeriodicSet(6, (1, 3))),
        (boolean_op(PeriodicSet(2, (0,)), FiniteSet((1,)), "union"), parse_set("per m=2 R={0} t=2 add={1}")),
        (APUnionSet((APTerm(4, 5),)), parse_set("ap a=4 h=1 j0=1")),
        (DyadicBlockSet(FillRule.constant(HALF), extras=(6, 3)),
         dataclasses.replace(parse_set("blocks f(n)=cycle{1/2}"), extras=(3, 6))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)


def test_read_caches_are_not_fields():
    # kernel results without a rule table or exceptions: a dilation and a
    # set-lifted union
    kernel = [transform(PeriodicSet(6, (1, 3)), "dilate", 4),
              boolean_op(PeriodicSet(40, (0,)), PeriodicSet(60, (1,)), "union")]
    for s in sample_sets() + kernel:
        # the AP-union intersection tuple is built by the first read, not
        # before; the periodic rule table by the first complement or pair op
        assert getattr(s, "_intersection_cache", None) is None
        assert getattr(s, "_table_cache", None) is None
        # the residue index of a periodic set: built at once by the public
        # constructor, by the first member or rule_member read of a kernel
        # result
        if isinstance(s, PeriodicSet):
            assert (s._residue_set is None) == any(s is x for x in kernel)
        assert getattr(s, "_tail_cache", None) is None
        assert getattr(s, "_ends", [0]) == [0]
        s.count_range(0, 40)
        assert isinstance(getattr(s, "_intersection_cache", None), tuple) == \
            isinstance(s, APUnionSet)
        assert getattr(s, "_table_cache", None) is None
        assert getattr(s, "_tail_cache", None) is None
        # the AP-union tail table by the first member read past the
        # threshold; the block slice ends by each read of a new block
        assert len(getattr(s, "_ends", [0])) == (7 if isinstance(s, DyadicBlockSet) else 1)
        for n in range(64):
            s.member(n)
        assert isinstance(getattr(s, "_tail_cache", None), bytes) == isinstance(s, APUnionSet)
        if isinstance(s, PeriodicSet):
            assert s._residue_set == frozenset(s.residues)
            assert s._residue_count == len(s.residues)
            complement(s)
            assert s._table_cache == _rule_bytes(s)
        names = {f.name for f in dataclasses.fields(s)}
        assert not {"_intersection_cache", "_table_cache", "_tail_cache", "_ends",
                    "_residue_set", "_residue_count"} & names
        cached = set(vars(s)) - names
        payload = to_payload(s)
        assert cached and names >= set(payload)
        assert not cached & set(payload)
        assert all(name not in repr(s) for name in cached)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 700).flatmap(
    lambda h: st.tuples(st.just(h), st.integers(0, (1 << h) - 1),
                        st.integers(-5, h), st.integers(-5, h))))
def test_horizon_reads_match_the_field_oracle(case):
    h, word, lo, hi = case
    s = HorizonSet(h, word.to_bytes((h + 7) // 8, "little"))
    want = field_elements(s, lo, hi)
    assert s.elements_in(lo, hi) == want
    assert s.count_range(lo, hi) == len(want)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 200).flatmap(
    lambda h: st.tuples(st.just(h), st.integers(0, (1 << h) - 1),
                        st.integers(0, (1 << h) - 1), st.integers(0, h + 3))))
def test_horizon_results_equal_their_public_rebuild(case):
    # every op builds its horizon result straight from a bit word
    h, wa, wb, n = case
    a = HorizonSet(h, wa.to_bytes((h + 7) // 8, "little"))
    b = HorizonSet.from_members(h, [x for x in range(h) if wb >> x & 1])
    f = FiniteSet(tuple(range(0, h, 3)))
    results = [b, complement(a), drop_below(a, n), parse_set(format_set(a)),
               transform(a, "shift", n)]
    results += [boolean_op(a, c, op) for op in _BOOL_OPS for c in (b, f)]
    for got in results:
        if not isinstance(got, HorizonSet):  # a ∖ a and a △ a are the empty FiniteSet
            continue
        again = HorizonSet(got.horizon, got.bits)
        assert again == got and hash(again) == hash(got) and repr(again) == repr(got)
        assert to_payload(again) == to_payload(got) and again._word == got._word
        assert got.elements_in(0, got.horizon) == field_elements(got, 0, got.horizon)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 80).flatmap(
    lambda h: st.tuples(st.just(h), st.binary(min_size=0, max_size=(h + 7) // 8 + 2))))
@example((9, b"\xff\x01"))
@example((9, b"\xff\xff"))
def test_horizon_bytes_with_stray_bits_equal_their_masked_twin(case):
    # bytes past the horizon's last byte are cut, bits of its last byte at
    # or past the horizon dropped: the set holds only members below H
    h, raw = case
    word = int.from_bytes(raw[:(h + 7) // 8], "little") & ((1 << h) - 1)
    s = HorizonSet(h, raw)
    twin = HorizonSet(h, word.to_bytes((h + 7) // 8, "little"))
    assert s == twin and hash(s) == hash(twin) and s.bits == twin.bits
    assert s._word == word and s.count_range(0, h) == word.bit_count()
    assert parse_set(format_set(s)) == s
    with pytest.raises(ValueError, match="horizon must be >= 0"):
        HorizonSet(-1 - h, raw)


def test_full_horizon_scan_is_linear():
    h = 1 << 20  # the largest horizon the grammar accepts
    s = HorizonSet(h, b"\xff" * (h // 8))
    t0 = time.perf_counter()
    members = s.elements_in(0, h)
    assert time.perf_counter() - t0 < 3.0
    assert len(members) == h and members[-1] == h - 1


def test_horizon_boolean_ops():
    a = HorizonSet.from_members(32, [1, 2, 3, 30])
    b = HorizonSet.from_members(32, [2, 3, 4])
    u = boolean_op(a, b, "union")
    assert brute_members(u, 32) == {1, 2, 3, 4, 30}
    x = boolean_op(a, b, "symdiff")
    assert brute_members(x, 32) == {1, 4, 30}
    c = HorizonSet.from_members(16, [1])
    with pytest.raises(IncompatibleBackends):
        boolean_op(a, c, "union")


def test_finite_minus_infinite_stays_finite():
    f = FiniteSet((0, 1, 2, 3, 4, 5))
    e = PeriodicSet(2, (0,))
    d = boolean_op(f, e, "difference")
    assert isinstance(d, FiniteSet)
    assert d.elements == (1, 3, 5)
    i = boolean_op(f, e, "intersection")
    assert i.elements == (0, 2, 4)


@pytest.mark.parametrize("text, least", [
    ("fin{}", None),
    ("fin{9,3,100000}", 3),
    ("per m=6 R={0,2} t=12 add={1} rm={0}", 1),
    ("per m=2 R={}", None),
    ("ap a=5040 h=3 j0=100", 504003),
    ("blocks f(n)=2^-20", 1 << 19),
    ("blocks f(n)=cycle{0}@3", None),
    ("blocks f(n)=1/n", 2),
])
def test_least_member_is_decided_exactly(text, least):
    a = parse_set(text)
    assert least_member(a) == least
    if least is not None:
        assert a.member(least) and brute_count(a, 0, min(least, 1 << 12)) == 0
        assert a.count_range(0, least) == 0


def test_least_member_of_horizon_sets_and_undecidable_fills():
    assert least_member(HorizonSet.from_members(1 << 17, [70000, 99999])) == 70000
    assert least_member(HorizonSet.from_members(64, [])) is None
    never = DyadicBlockSet(FillRule.vanishing(lambda n: Fraction(0), "0",
                                              slice_growth="bounded"))
    with pytest.raises(UnsupportedBackend, match="not decidable"):
        least_member(never)
