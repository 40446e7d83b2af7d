import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitas import exhaust
from densitas.exceptions import QueryBeyondHorizon, UnsupportedBackend
from densitas.config import DEFAULT_CONFIG
from densitas.density import (
    FUNCTIONAL_NAMES,
    get_functional,
    get_weight,
    prefix_profile,
    window_profile,
)
from densitas.exhaust import (
    _MAX_EXACT_EXPONENT,
    LSCSM_NAMES,
    LscsmDescriptor,
    _BlockWeights,
    check_lscsm_axioms,
    exh_member,
    exhaustive_norm,
    faulhaber,
    get_lscsm,
    lscsm_eval,
    phi_infty_eval,
    tail_value,
)
from densitas.metric import evaluate_measure
from densitas.natset import (
    APTerm,
    APUnionSet,
    DyadicBlockSet,
    FillRule,
    FiniteSet,
    HorizonSet,
    PeriodicSet,
    as_ap_union,
    boolean_op,
    finite_part,
    parse_set,
)
from densitas.values import bracket, exact

from conftest import (
    brute_block_ratio,
    brute_members,
    brute_pow2_ratio_sums,
    brute_power_sum,
    brute_sup_ratio,
    random_structured_set,
)


EVENS = PeriodicSet(2, (0,))
OMEGA = PeriodicSet(1, (0,))
THIRDS = PeriodicSet(3, (1,))
MESSY = PeriodicSet(12, (0, 3, 7, 11), threshold=32, added=(4, 5), removed=(27, 31))
AP_UNION = APUnionSet((APTerm(6, 1), APTerm(10, 3)), extras=(0, 4), removals=(13,))
HALF_BLOCKS = DyadicBlockSet(FillRule.constant(Fraction(1, 2)))
CYCLE_BLOCKS = DyadicBlockSet(FillRule.cycled([Fraction(1, 3), Fraction(0), Fraction(3, 4)],
                                              threshold=2, head=(1, 0)))
DIRTY_BLOCKS = DyadicBlockSet(FillRule.cycled([Fraction(2, 5), Fraction(1, 7)]),
                              extras=(3, 9), removals=(4,))
POW2 = DyadicBlockSet(FillRule.vanishing(lambda n: Fraction(1, 2 ** n), "2^-n",
                                         slice_growth="bounded"))
THIN = DyadicBlockSet(FillRule.vanishing(lambda n: Fraction(1, n), "1/n"))


# ---------------------------------------------------------------------------
# power sums


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.tuples(st.integers(min_value=-3, max_value=2000), st.integers(min_value=0, max_value=64)),
    st.tuples(st.integers(min_value=-3, max_value=50), st.just(_MAX_EXACT_EXPONENT))))
def test_faulhaber_matches_brute_sums(case):
    k, e = case
    assert faulhaber(k, e) == brute_power_sum(k, e)


def test_faulhaber_large_arguments_stay_integral():
    # the Bernoulli-coefficient form must cancel exactly, not approximately
    assert faulhaber(10 ** 12, 3) == (10 ** 12 * (10 ** 12 + 1) // 2) ** 2
    assert faulhaber(10 ** 6, 17) == sum(i ** 17 for i in range(1, 10 ** 6 + 1))


# ---------------------------------------------------------------------------
# registry


def test_registry_round_trips():
    assert get_lscsm("phi-prefix").kind == "prefix"
    assert get_lscsm("psi-dyadic").kind == "psi"
    assert get_lscsm("phi-alpha:a=3").alpha == 3
    assert get_lscsm("phi-alpha:a=0").alpha == 0
    assert get_lscsm("phi-infty:eps=1/128").eps == Fraction(1, 128)
    assert get_lscsm("phi-infty-trunc:a=4").trunc == 4
    assert get_lscsm("counting").kind == "counting"
    assert get_lscsm("weighted:f=harmonic").weight == "harmonic"


def test_well_formed_names_read_as_before():
    # a family alone or with its one key=value; only the two phi-infty
    # families have a default argument
    assert [get_lscsm(n).name for n in ("phi-infty", "phi-infty-trunc", "phi-alpha:a=03")] \
        == ["phi-infty:eps=1/1000000", "phi-infty-trunc:a=4", "phi-alpha:a=3"]
    assert get_lscsm("phi-infty").eps == Fraction(1, 10 ** 6)
    for name in FINITE_NAMES + ("phi-infty:eps=1/8", "phi-infty:eps=0.25", "phi-infty-trunc:a=9",
                                "phi-alpha:a=512"):
        assert get_lscsm(name).name == name
    assert [get_lscsm(n).kind for n in FINITE_NAMES] == [
        "prefix", "psi", "alpha", "alpha", "alpha", "infty-trunc", "infty-trunc", "counting",
        "harmonic", "geometric", "weighted", "weighted", "weighted", "weighted"]


def test_registry_rejects_bad_names():
    with pytest.raises(KeyError):
        get_lscsm("phi-alpha:a=1/2")  # non-integer exponents are out
    with pytest.raises(KeyError):
        get_lscsm("phi-alpha:a=-1")
    with pytest.raises(KeyError):
        get_lscsm("phi-infty:eps=0")
    with pytest.raises(KeyError):
        get_lscsm("phi-infty-trunc:a=12")
    with pytest.raises(KeyError):
        get_lscsm("phi-infty-trunc:a=10")  # 2^10 > 512
    with pytest.raises(KeyError):
        get_lscsm(f"phi-infty-trunc:a={10 ** 12}")  # refused without building 2^a
    with pytest.raises(KeyError):
        get_lscsm("weighted:f=nope")
    with pytest.raises(KeyError):
        get_lscsm("submeasure-of-the-month")


# ---------------------------------------------------------------------------
# finite-prefix evaluation


def test_prefix_eval_frozen_values():
    # evens below 10: members 2,4,6,8; the ratio peaks at k=2
    assert lscsm_eval("phi-prefix", EVENS, 10) == exact(Fraction(1, 2))
    assert lscsm_eval("phi-prefix", OMEGA, 5) == exact(Fraction(1))
    assert lscsm_eval("phi-prefix", FiniteSet(()), 50) == exact(0)
    # {3,4,5} below 6: best at k=5
    assert lscsm_eval("phi-prefix", FiniteSet((3, 4, 5)), 6) == exact(Fraction(3, 5))


def test_alpha_eval_frozen_values():
    assert lscsm_eval("phi-alpha:a=1", OMEGA, 4) == exact(Fraction(1))
    # {2,3} with weight i: best at k=3 is (2+3)/(1+2+3)
    assert lscsm_eval("phi-alpha:a=1", FiniteSet((2, 3)), 4) == exact(Fraction(5, 6))
    # alpha=0 must agree with phi-prefix everywhere it is queried
    for s in (EVENS, THIRDS, MESSY):
        assert lscsm_eval("phi-alpha:a=0", s, 64) == lscsm_eval("phi-prefix", s, 64)
        assert tail_value("phi-alpha:a=0", s, 5) == tail_value("phi-prefix", s, 5)


def test_psi_eval_counts_blocks():
    # members 2,3 fill block [2,4) completely
    assert lscsm_eval("psi-dyadic", FiniteSet((2, 3)), 10) == exact(Fraction(1))
    # half of block [4,8)
    assert lscsm_eval("psi-dyadic", FiniteSet((4, 6)), 10) == exact(Fraction(1, 2))
    # a truncated block still divides by the full block length
    assert lscsm_eval("psi-dyadic", OMEGA, 6) == exact(Fraction(1))
    assert lscsm_eval("psi-dyadic", FiniteSet((8, 9)), 10) == exact(Fraction(1, 4))


def test_measure_kind_evals_are_plain_sums():
    s = FiniteSet((0, 1, 4))
    assert lscsm_eval("counting", s, 10) == exact(3)
    assert lscsm_eval("harmonic", s, 10) == exact(Fraction(1) + Fraction(1, 2) + Fraction(1, 5))
    assert lscsm_eval("geometric", s, 10) == exact(Fraction(1, 2) + Fraction(1, 4) + Fraction(1, 32))
    assert lscsm_eval("counting", s, 2) == exact(2)


def test_weighted_eval_agrees_with_brute_sup():
    w = lambda i: Fraction(1, i + 1)
    for s in (EVENS, FiniteSet((1, 2, 9)), THIRDS):
        got = lscsm_eval("weighted:f=harmonic", s, 40)
        want = brute_sup_ratio(s.elements_in(1, 40), w)
        assert got == exact(want)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=120), max_size=25),
       st.integers(min_value=0, max_value=4))
def test_alpha_eval_matches_brute_sup_on_finite_sets(members, e):
    s = FiniteSet(tuple(sorted(members)))
    got = lscsm_eval(f"phi-alpha:a={e}", s, 121)
    want = brute_sup_ratio(sorted(members), lambda i: Fraction(i ** e))
    assert got == exact(want)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=100), max_size=20),
       st.sets(st.integers(min_value=1, max_value=100), max_size=20))
def test_eval_monotone_and_subadditive_on_finite_sets(xs, ys):
    a, b = FiniteSet(tuple(sorted(xs))), FiniteSet(tuple(sorted(ys)))
    u = FiniteSet(tuple(sorted(xs | ys)))
    for name in ("phi-prefix", "psi-dyadic", "phi-alpha:a=2", "harmonic"):
        va = lscsm_eval(name, a, 101).value
        vb = lscsm_eval(name, b, 101).value
        vu = lscsm_eval(name, u, 101).value
        assert vu >= va and vu >= vb
        assert vu <= va + vb


def test_eval_is_monotone_in_the_prefix_length():
    for name in ("phi-prefix", "psi-dyadic", "phi-alpha:a=3", "counting", "harmonic"):
        prev = Fraction(0)
        for n in (8, 16, 32, 64, 128):
            v = lscsm_eval(name, MESSY, n).value
            assert v >= prev
            prev = v


def test_eval_beyond_horizon_raises():
    h = HorizonSet.from_members(64, range(0, 64, 2))
    assert lscsm_eval("phi-prefix", h, 64) == exact(Fraction(1, 2))
    with pytest.raises(QueryBeyondHorizon):
        lscsm_eval("phi-prefix", h, 65)


# ---------------------------------------------------------------------------
# phi-infty evaluation


def test_phi_infty_eval_brackets_the_direct_sum():
    eps = Fraction(1, 256)
    for s, n in ((EVENS, 32), (FiniteSet((2, 5, 6)), 10), (THIRDS, 48)):
        got = phi_infty_eval(s, n, eps)
        assert got.status == "bracket"
        assert got.upper - got.lower <= eps
        # the direct sum to the same truncation depth (2^-9 <= eps/2) lies
        # inside the bracket
        direct = sum(Fraction(1, 2 ** a)
                     * lscsm_eval(f"phi-alpha:a={2 ** a}", s, n).value
                     for a in range(0, 10))
        assert got.lower <= direct <= got.upper


def test_phi_infty_eval_past_the_exact_exponents_brackets_the_direct_sum():
    # at eps = 10^-6 the sum runs to a = 21; the components past exponent 512
    # are bounded by concentration at the least member (at least 2 here),
    # and the bracket still holds the direct sum of all 22 components
    eps = Fraction(1, 10 ** 6)
    for s, n in ((EVENS, 16), (FiniteSet((2, 5, 6)), 10), (PeriodicSet(3, (0,)), 24)):
        got = phi_infty_eval(s, n, eps)
        assert got.status == "bracket"
        assert got.note == "summed alpha-component tails"
        lo, hi = brute_pow2_ratio_sums(s.elements_in(1, n), 21)
        assert got.lower <= lo <= hi <= got.upper
        assert got.upper - got.lower < Fraction(1, 1000)


def test_phi_infty_eval_omega_prefix_is_near_two():
    # every component ratio is 1 on a full prefix, so the sum approaches 2
    v = phi_infty_eval(OMEGA, 8, Fraction(1, 64))
    assert v.lower >= 2 - Fraction(1, 16)
    assert v.upper <= 2


def test_phi_infty_eval_rejects_bad_eps():
    with pytest.raises(ValueError):
        phi_infty_eval(EVENS, 16, 0)


# ---------------------------------------------------------------------------
# tails


def brute_tail(name, a, n, horizon):
    elems = [x for x in a.elements_in(max(n, 1), horizon)]
    return lscsm_eval(name, FiniteSet(tuple(elems)), horizon).value


@pytest.mark.parametrize("a", [EVENS, THIRDS, MESSY, AP_UNION,
                               FiniteSet((1, 2, 3, 50, 51, 52, 53))])
@pytest.mark.parametrize("n", [0, 1, 7, 64])
def test_prefix_tails_certify_the_supremum(a, n):
    t = tail_value("phi-prefix", a, n)
    b = brute_tail("phi-prefix", a, n, 100_000)
    assert t.status == "exact"
    assert b <= t.value
    # the brute scan should get close; the certified value is a sup, not a guess
    assert t.value - b <= Fraction(1, 50)


@pytest.mark.parametrize("a", [EVENS, MESSY, AP_UNION])
@pytest.mark.parametrize("e", [1, 2, 5])
def test_alpha_tails_bound_brute_scans(a, e):
    for n in (0, 9, 65):
        t = tail_value(f"phi-alpha:a={e}", a, n)
        b = brute_tail(f"phi-alpha:a={e}", a, n, 50_000)
        hi = t.value if t.status == "exact" else t.upper
        lo = t.value if t.status == "exact" else t.lower
        assert b <= hi
        assert lo <= hi


@pytest.mark.parametrize("a", [EVENS, THIRDS, MESSY, AP_UNION])
def test_psi_tails_are_exact_on_periodic_backends(a):
    for n in (0, 5, 33):
        t = tail_value("psi-dyadic", a, n)
        assert t.status == "exact"
        assert brute_tail("psi-dyadic", a, n, 1 << 17) <= t.value


@pytest.mark.parametrize("a", [HALF_BLOCKS, CYCLE_BLOCKS, DIRTY_BLOCKS, POW2, THIN])
def test_block_tails_bound_brute_scans(a):
    for name in ("phi-prefix", "phi-alpha:a=2", "psi-dyadic"):
        for n in (0, 6, 40):
            t = tail_value(name, a, n)
            b = brute_tail(name, a, n, 1 << 16)
            hi = t.value if t.status == "exact" else t.upper
            assert b <= hi, (name, n, t, b)


def test_block_alpha_tails_read_exceptions_past_a_cut_in_a_gap():
    # the cut 2 lies past its block's empty slice, and the extra 2 of that
    # same block carries the supremum for e >= 1 (2^e / F(2))
    a = DyadicBlockSet(FillRule.constant(Fraction(1, 8)), extras=(2, 75, 76))
    for e in (0, 1, 2):
        for n in (2, 3, 65, 73):
            t = tail_value(f"phi-alpha:a={e}", a, n)
            b = brute_tail(f"phi-alpha:a={e}", a, n, 1 << 14)
            assert b <= (t.value if t.status == "exact" else t.upper), (e, n)
    assert [tail_value(f"phi-alpha:a={e}", a, 2).value for e in (1, 2)] == [
        Fraction(2, 3), Fraction(4, 5)]


WEIGHT_SETS = [
    # cycled fill; extras inside gaps, removals at block starts and inside slices
    DyadicBlockSet(FillRule.cycled([Fraction(2, 5), Fraction(1, 7)]),
                   extras=(3, 9, 100, 5000), removals=(4, 64, 129, 4096)),
    # thresholded cycle with a head and an empty phase
    DyadicBlockSet(FillRule.cycled([Fraction(1, 3), Fraction(0), Fraction(3, 4)],
                                   threshold=3, head=(1, 0, Fraction(1, 2))),
                   extras=(6, 7, 40, 300), removals=(2, 8, 33, 1024, 1025)),
    # vanishing fill
    DyadicBlockSet(FillRule.vanishing(lambda n: Fraction(1, n), "1/n"),
                   extras=(0, 3, 12, 700, 9000), removals=(4, 32, 1030, 8192)),
]


@pytest.mark.parametrize("a", WEIGHT_SETS)
def test_block_tail_weight_matches_brute_members(a):
    top = 1 << 14
    members = sorted(x for x in brute_members(a, top + 1) if x >= 1)
    starts = {1, 2, 5, 70, 1500, 5000, (1 << 13) + 17}  # block starts and interiors
    starts |= set(a.extras) - {0}
    starts |= {r + d for r in a.removals for d in (-1, 0, 1) if r + d >= 1}
    ends = {1, 3, 63, 64, 65, 700, 1029, 4095, 4097, 9000, top}
    ends |= {(1 << j) + a.slice_len(j) - 1 for j in range(14) if a.slice_len(j)}
    for e in (0, 1, 2, 4):
        w = _BlockWeights(a, e)
        for s in sorted(starts):
            for k in sorted(ends):
                # the weight of the members in [s, k]; for k < s, minus that
                # of the members in (k, s)
                want = sum(i ** e for i in members if s <= i <= k) - \
                    sum(i ** e for i in members if k < i < s)
                assert w.prefix(k) - w.prefix(s - 1) == want, (s, k, e)


@pytest.mark.parametrize("a", [EVENS, THIRDS, MESSY, AP_UNION, HALF_BLOCKS, CYCLE_BLOCKS,
                               DIRTY_BLOCKS, *WEIGHT_SETS[:2]])
def test_psi_tails_at_cuts_inside_a_block_match_brute_scans(a):
    # the block a cut splits is counted from the cut on, not whole: the
    # exact tail is the larger of the brute block scan and the limsup
    norm = exhaustive_norm("psi-dyadic", a).value.value
    for n in (3, 5, 6, 70, 129, 1500):
        t = tail_value("psi-dyadic", a, n)
        assert t.status == "exact"
        assert t.value == max(brute_tail("psi-dyadic", a, n, 1 << 17), norm), n


def test_block_alpha_norm_power_sum_budget(monkeypatch):
    # the prefix weights are built once per norm, so the number of power
    # sums grows linearly with the scanned blocks, not with the cuts
    calls = 0
    real = exhaust.faulhaber

    def counted(k, e):
        nonlocal calls
        calls += 1
        return real(k, e)

    monkeypatch.setattr(exhaust, "faulhaber", counted)
    est = exhaustive_norm("phi-alpha:a=2", HALF_BLOCKS)
    assert est.exact
    assert calls <= 2500


# ---------------------------------------------------------------------------
# one scan per norm: every profile cut reads the tables the norm shares


SCAN_SETS = {
    "evens": EVENS, "messy": MESSY, "per-240": PeriodicSet(240, (0, 7, 100, 239), threshold=77),
    "ap-union": AP_UNION, "ap-factorial": parse_set("ap a=4! h=1 j0=1 | ap a=5! h=7"),
    "half-blocks": HALF_BLOCKS, "cycle-blocks": CYCLE_BLOCKS, "dirty-blocks": DIRTY_BLOCKS,
    "pow2": POW2, "thin": THIN, **{f"weight-set-{i}": a for i, a in enumerate(WEIGHT_SETS)},
    "finite": FiniteSet((1, 2, 3, 50, 51, 52, 53)),
    "horizon": HorizonSet.from_members(4096, range(0, 4096, 3)),
}
SCAN_NAMES = ("phi-prefix", "psi-dyadic", "phi-alpha:a=0", "phi-alpha:a=1", "phi-alpha:a=3",
              "phi-infty:eps=1/2", "phi-infty-trunc:a=2", "counting", "harmonic", "geometric",
              "weighted:f=constant", "weighted:f=harmonic")
# 95 lies past its block's slice in WEIGHT_SETS[0], before the extra 100
SCAN_CUTS = (None, [0, 5, 95, 129, 1500, 8193], [4096, 3, 70, 5001, 1025, 9])


def _standalone_profile(name, a, cuts):
    """The profile exhaustive_norm certifies, rebuilt from one standalone
    tail_value call per cut and clamped to be nonincreasing the same way."""
    profile, prev = [], None
    for n in cuts:
        if isinstance(a, HorizonSet) and n >= a.horizon:
            break
        t = tail_value(name, a, n)
        if t.status == "exact":
            up = t.value
        elif t.status == "bracket" and t.upper is not None:
            up = t.upper
        else:
            return ()
        if prev is not None and up > prev:
            up = prev
        profile.append((n, up))
        prev = up
    return tuple(profile)


@pytest.mark.parametrize("key", SCAN_SETS)
def test_norm_profiles_equal_their_standalone_tails(key):
    a = SCAN_SETS[key]
    for name in SCAN_NAMES:
        for cuts in SCAN_CUTS:
            try:
                est = exhaustive_norm(name, a, profile_cuts=cuts)
            except UnsupportedBackend:
                continue
            if est.value.status not in ("exact", "bracket"):
                assert est.profile == (), (name, cuts)
                continue
            want = cuts if cuts is not None else exhaust._profile_cuts(get_lscsm(name), a)
            assert est.profile == _standalone_profile(name, a, want), (name, cuts)


def test_a_norm_without_profile_cuts_keeps_its_value(rng, monkeypatch):
    # the limit pipelines, evaluate_measure("norm:..."), exh_member and the
    # bare text `norm` verb ask for no profile: the value must be the one the
    # full estimate carries, and exh_member's verdict the one it reads off
    # that full estimate
    sets = list(SCAN_SETS.values()) + [random_structured_set(rng) for _ in range(60)]
    for a in sets:
        for name in SCAN_NAMES:
            lean = exhaustive_norm(name, a, profile_cuts=())
            full = exhaustive_norm(name, a)
            assert lean.profile == ()
            assert lean.value == full.value, (name, a)
            with monkeypatch.context() as m:
                m.setattr(exhaust, "exhaustive_norm", lambda *args, **kw: full)
                verdict = exh_member(name, a)
            assert exh_member(name, a) == verdict, (name, a)


@pytest.mark.parametrize("a", [HALF_BLOCKS, DIRTY_BLOCKS, POW2, THIN, *WEIGHT_SETS, MESSY,
                               AP_UNION])
def test_a_norm_computes_each_power_sum_once(monkeypatch, a):
    calls = Counter()
    real = exhaust.faulhaber

    def counted(k, e):
        calls[k, e] += 1
        return real(k, e)

    monkeypatch.setattr(exhaust, "faulhaber", counted)
    for name in ("phi-alpha:a=1", "phi-alpha:a=2", "phi-infty-trunc:a=2"):
        for cuts in SCAN_CUTS:
            calls.clear()
            exhaustive_norm(name, a, profile_cuts=cuts)
            assert calls, (name, cuts)
            again = [key for key, count in calls.items() if count > 1]
            assert not again, (name, cuts, again[:5])


def test_tails_shrink_toward_the_norm():
    est = exhaustive_norm("phi-prefix", MESSY)
    tails = [tail_value("phi-prefix", MESSY, n).value for n in (1, 16, 256, 4096)]
    assert all(x >= y for x, y in zip(tails, tails[1:]))
    assert all(x >= est.value.value for x in tails)


FOLD_SETS = (EVENS, THIRDS, MESSY, AP_UNION, HALF_BLOCKS, CYCLE_BLOCKS,
             HorizonSet.from_members(96, [2, 3, 5, 8, 13, 21, 34, 55, 89]))


def test_prefix_names_agree_at_every_cut():
    # phi-prefix, phi-alpha:a=0 and weighted:f=constant are one functional
    for s in FOLD_SETS:
        for n in (0, 1, 5, 37):
            want = tail_value("phi-prefix", s, n)
            assert tail_value("phi-alpha:a=0", s, n) == want, (s, n)
            assert tail_value("weighted:f=constant", s, n) == want, (s, n)
            want = lscsm_eval("phi-prefix", s, n)
            assert lscsm_eval("phi-alpha:a=0", s, n) == want, (s, n)
            assert lscsm_eval("weighted:f=constant", s, n) == want, (s, n)


def test_truncated_tower_is_the_sum_of_its_components():
    # phi-infty-trunc:a=2 = phi_1 + phi_2 / 2 + phi_4 / 4 wherever every part is exact
    checked = 0
    for s in FOLD_SETS:
        for n in (0, 1, 5, 37):
            for fn in (tail_value, lscsm_eval):
                parts = [fn(f"phi-alpha:a={2 ** i}", s, n) for i in range(3)]
                if not all(p.status == "exact" for p in parts):
                    continue
                want = sum(Fraction(1, 2 ** i) * p.value for i, p in enumerate(parts))
                assert fn("phi-infty-trunc:a=2", s, n) == exact(want), (fn, s, n)
                checked += 1
    assert checked >= 40


def test_horizon_tails_are_observational():
    h = HorizonSet.from_members(2048, range(0, 2048, 3))
    for name in ("phi-prefix", "psi-dyadic", "phi-alpha:a=2"):
        t = tail_value(name, h, 10)
        assert t.status == "observational"


def test_counting_and_harmonic_tails_know_divergence():
    assert tail_value("counting", EVENS, 1000).status == "infinite"
    assert tail_value("harmonic", EVENS, 1000).status == "infinite"
    assert tail_value("harmonic", CYCLE_BLOCKS, 64).status == "infinite"
    t = tail_value("harmonic", POW2, 4)
    assert t.status == "bracket" and t.upper is not None
    # one member per block from 4 on: sum 1/(2^j+1) over j >= 2 stays tiny
    assert t.upper < Fraction(1, 2)
    fin = tail_value("counting", FiniteSet((3, 8, 9)), 4)
    assert fin == exact(2)


def test_geometric_tail_is_a_thin_bracket():
    # the geometric tail of an eventually periodic set is its exact series,
    # the bracket of width zero: sum over even x >= 10 of 2^-(x+1)
    t = tail_value("geometric", EVENS, 10)
    assert t == exact(Fraction(1, 1536))
    assert t.upper - t.lower <= Fraction(1, 2 ** 1000)


# ---------------------------------------------------------------------------
# finite evidence: one evaluator for prefixes and finite tails


# every catalogue family but phi-infty, whose finite values are brackets
FINITE_NAMES = ("phi-prefix", "psi-dyadic", "phi-alpha:a=0", "phi-alpha:a=1", "phi-alpha:a=4",
                "phi-infty-trunc:a=0", "phi-infty-trunc:a=3", "counting", "harmonic",
                "geometric", "weighted:f=constant", "weighted:f=harmonic",
                "weighted:f=doubling", "weighted:f=halving")


def test_finite_names_cover_the_catalogue():
    family = lambda name: name.partition(":")[0]
    assert {family(n) for n in FINITE_NAMES} == {family(n) for n in LSCSM_NAMES} - {"phi-infty"}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 120))
def test_prefix_value_is_the_tail_value_of_the_prefix(seed, n):
    a = random_structured_set(random.Random(seed))
    prefix = FiniteSet(tuple(a.elements_in(0, n)))
    for name in FINITE_NAMES:
        assert lscsm_eval(name, a, n) == tail_value(name, prefix, 0), name


def _finite_forms(members):
    """The same finite set as each backend that natset.finite_part reads:
    a periodic set without residues, an AP union without terms, and block
    sets with an all-zero cycle, without a head and with one (its block 3,
    {8..15}, filled, then corrected by extras and removals)."""
    xs = tuple(sorted(members))
    t = xs[-1] + 1 if xs else 0
    head = FillRule.cycled([Fraction(0)], threshold=4, head=(0, 0, 0, 1))
    return (FiniteSet(xs), PeriodicSet(7, (), t, xs), APUnionSet((), extras=xs),
            DyadicBlockSet(FillRule.cycled([Fraction(0), Fraction(0)]), extras=xs),
            DyadicBlockSet(head, extras=tuple(x for x in xs if not 8 <= x < 16),
                           removals=tuple(x for x in range(8, 16) if x not in members)))


@settings(max_examples=80, deadline=None)
@given(st.sets(st.integers(0, 90), max_size=12), st.integers(0, 100),
       st.sampled_from(("constant", "harmonic", "doubling", "halving")))
def test_weighted_tails_of_finite_sets_match_the_brute_supremum(members, n, wname):
    want = brute_sup_ratio(members, get_weight(wname).func, cut=n)
    for a in _finite_forms(members):
        assert tail_value(f"weighted:f={wname}", a, n) == exact(want), a


# every norm family, phi-infty included
_NORMS = FINITE_NAMES + ("phi-infty:eps=1/8",)


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(0, 40), max_size=8))
def test_every_functional_reads_a_disguised_finite_set_as_its_finite_part(members):
    plain, *disguised = _finite_forms(members)
    for name in FUNCTIONAL_NAMES + tuple(f"norm:{n}" for n in _NORMS):
        want = evaluate_measure(name, plain)
        for a in disguised:
            assert finite_part(a) == plain
            assert evaluate_measure(name, a) == want, (name, a)


def test_finite_tails_are_exact_inside_the_old_brackets():
    assert tail_value("weighted:f=harmonic", parse_set("fin{1,2,3}"), 0) == exact(1)
    # the bracket here was [0, 40/171]
    t = tail_value("phi-alpha:a=2", PeriodicSet(3, (), 2000, (1500,)), 0)
    assert t == exact(Fraction(1500 ** 2, brute_power_sum(1500, 2)))
    t = tail_value("geometric", parse_set("fin{2,3,13}"), 3)
    assert t == exact(Fraction(1, 2 ** 4) + Fraction(1, 2 ** 14))


def test_zero_cycle_block_tails_read_the_head_blocks():
    # the members are the head blocks 3 and 4, {8..31}
    a = DyadicBlockSet(FillRule.cycled([Fraction(0)], threshold=5, head=(0, 0, 0, 1, 1)))
    members = brute_members(a, 64)
    for e in (0, 2):
        for n in (0, 5, 20):
            want = brute_sup_ratio(members, lambda i: Fraction(i ** e), cut=n)
            assert tail_value(f"phi-alpha:a={e}", a, n) == exact(want), (e, n)


def test_far_finite_tails_keep_the_position_scans_bounded():
    # weighted sums and geometric bits read every position up to the last
    # member, so a member past the scan bound keeps the bracket
    far = FiniteSet((3, 10 ** 12))
    assert tail_value("weighted:f=harmonic", far, 0).status == "bracket"
    assert tail_value("geometric", far, 0).status == "bracket"
    assert tail_value("phi-alpha:a=2", far, 0).status == "exact"
    # an AP union's extras are held to the same bound: the exact series would
    # sum its exceptions into one integer as wide as the largest of them
    thirds = parse_set("ap a=3 h=0")
    far_ap = boolean_op(thirds, FiniteSet((10 ** 12,)), "union")
    for n in (0, 7):
        t = tail_value("geometric", far_ap, n)
        assert t.status == "bracket" and t.upper - t.lower == Fraction(1, 2 ** 4096)
    assert exhaustive_norm("geometric", far_ap).value == exact(0)
    near_ap = boolean_op(thirds, FiniteSet((5000,)), "union")
    assert tail_value("geometric", near_ap, 7) == exact(
        Fraction(1, 896) + Fraction(1, 2 ** 5001))


_PREFIX_NOTE = "window scan plus deviation envelope (moduli beyond the sweep budget)"


@pytest.mark.parametrize("name, literal, cut, note, brute", [
    ("phi-prefix", "ap a=9! h=1", 5, _PREFIX_NOTE,
     lambda xs, n: brute_sup_ratio(xs, lambda i: Fraction(1), cut=n)),
    ("psi-dyadic", "per m=10007 R={0}", 3,
     "residue cycle beyond the order cap; deviation-bounded", brute_block_ratio),
    ("psi-dyadic", "blocks f(n)=cycle{1/10007}", 2, "rounding period beyond the order cap",
     brute_block_ratio),
], ids=("prefix-factorial-modulus", "psi-periodic-order-cap", "psi-block-order-cap"))
def test_tails_past_the_scan_caps_bracket_the_brute_supremum(name, literal, cut, note, brute):
    a = parse_set(literal)
    t = tail_value(name, a, cut)
    assert (t.status, t.note) == ("bracket", note)
    assert t.lower <= t.upper
    assert t.upper >= brute(brute_members(a, 1 << 16), cut)


def test_phi_infty_of_an_empty_tail_is_exact_zero():
    # the empty set is 0 under every lscsm, so the tail and the prefix
    # evaluator agree on it, and a finite set's norm profile ends in 0
    name = "phi-infty:eps=1/8"
    assert tail_value(name, FiniteSet(()), 0) == lscsm_eval(name, FiniteSet(()), 0) == exact(0)
    assert tail_value(name, FiniteSet((3, 9)), 10) == exact(0)
    est = exhaustive_norm(name, FiniteSet((1, 5)))
    assert est.profile[0][1] > 0 and [up for cut, up in est.profile if cut > 5] == [0] * 5


# ---------------------------------------------------------------------------
# norms


def test_prefix_norm_is_the_upper_density():
    from densitas.density import upper_asymptotic
    for a in (EVENS, THIRDS, MESSY, AP_UNION, HALF_BLOCKS, CYCLE_BLOCKS, POW2, THIN):
        est = exhaustive_norm("phi-prefix", a)
        assert est.exact
        assert est.value == upper_asymptotic(a).value


_RATIONALS = st.fractions(min_value=0, max_value=1, max_denominator=12)
_EXCEPTION_POOL = st.lists(st.integers(0, 60), max_size=5, unique=True)


def _split(cls, rule, pool, cut):
    """cls(rule, extras, removals) with the pool split at cut."""
    return cls(rule, tuple(pool[:cut]), tuple(pool[cut:]))


@st.composite
def _exact_backend_sets(draw):
    """Finite, periodic, AP-union, constant-fill and cycled-fill block sets,
    with exceptions, thresholds, starts and fill heads."""
    kind = draw(st.sampled_from(("finite", "periodic", "ap-union", "constant", "cycled")))
    pool = draw(_EXCEPTION_POOL)
    cut = draw(st.integers(0, len(pool)))
    if kind == "finite":
        return FiniteSet(tuple(pool))
    if kind == "periodic":
        m = draw(st.integers(1, 30))
        residues = tuple(draw(st.sets(st.integers(0, m - 1))))
        t = draw(st.integers(0, 61))
        below = [x for x in pool if x < t]
        return PeriodicSet(m, residues, t, tuple(x for x in below if x % m not in residues),
                           tuple(x for x in below if x % m in residues))
    if kind == "ap-union":
        terms = draw(st.lists(st.builds(APTerm, st.sampled_from((1, 2, 3, 6, 10, 24, 120)),
                                        st.integers(0, 40), st.integers(0, 3)), max_size=3))
        return _split(APUnionSet, tuple(terms), pool, cut)
    if kind == "constant":
        return _split(DyadicBlockSet, FillRule.constant(draw(_RATIONALS)), pool, cut)
    fill = FillRule.cycled(draw(st.lists(_RATIONALS, min_size=1, max_size=3)),
                           draw(st.integers(0, 4)),
                           draw(st.lists(st.sampled_from((0, Fraction(1, 2), 1)), max_size=4)))
    return _split(DyadicBlockSet, fill, pool, cut)


@settings(max_examples=200, deadline=None)
@given(_exact_backend_sets())
def test_prefix_norm_equals_d_star_on_the_exact_backends(a):
    # the catalogue claims the phi-prefix norm is the upper asymptotic
    # density; both are computed in closed form here, each its own way
    norm = evaluate_measure("norm:phi-prefix", a)
    assert norm.status == "exact"
    assert norm == evaluate_measure("d-star", a)


def test_psi_norm_on_dyadic_fills_is_two_to_minus_n():
    for n in range(0, 13):
        a = DyadicBlockSet(FillRule.constant(Fraction(1, 2 ** n)))
        est = exhaustive_norm("psi-dyadic", a)
        assert est.exact and est.value.value == Fraction(1, 2 ** n)


def test_psi_norm_values():
    assert exhaustive_norm("psi-dyadic", EVENS).value == exact(Fraction(1, 2))
    assert exhaustive_norm("psi-dyadic", CYCLE_BLOCKS).value == exact(Fraction(3, 4))
    assert exhaustive_norm("psi-dyadic", POW2).value == exact(0)
    assert exhaustive_norm("psi-dyadic", FiniteSet((5, 6, 7))).value == exact(0)


def test_alpha_norm_constant_fill_closed_form():
    # constant fill c: norm = (1 - (1+c)^-(e+1)) * 2^(e+1) / (2^(e+1) - 1)
    for c in (Fraction(1, 2), Fraction(1, 3), Fraction(1)):
        for e in (0, 1, 2, 4):
            a = DyadicBlockSet(FillRule.constant(c))
            want = (1 - Fraction(1, (1 + c) ** (e + 1))) * Fraction(2 ** (e + 1), 2 ** (e + 1) - 1)
            assert exhaustive_norm(f"phi-alpha:a={e}", a).value == exact(want)


def test_alpha_norm_on_periodic_sets_is_the_density():
    for a in (EVENS, THIRDS, MESSY):
        for e in (1, 2, 8):
            est = exhaustive_norm(f"phi-alpha:a={e}", a)
            assert est.value == exact(a.density())


def test_block_norm_limits_are_approached_by_far_tails():
    # the certified norm must match what a deep tail scan sees
    for a in (CYCLE_BLOCKS, DIRTY_BLOCKS):
        for name in ("phi-prefix", "phi-alpha:a=1"):
            norm = exhaustive_norm(name, a).value.value
            far = brute_tail(name, a, 1 << 12, 1 << 18)
            assert abs(far - norm) <= Fraction(1, 30)


def test_infty_norm_on_periodic_is_twice_the_density():
    for a in (EVENS, THIRDS):
        est = exhaustive_norm("phi-infty:eps=1/64", a)
        assert est.value == exact(2 * a.density())


def test_infty_trunc_norm_is_the_partial_geometric_sum():
    for a in (EVENS, THIRDS):
        for depth in (0, 2, 4):
            est = exhaustive_norm(f"phi-infty-trunc:a={depth}", a)
            want = a.density() * (2 - Fraction(1, 2 ** depth))
            assert est.value == exact(want)


def test_counting_and_harmonic_norms():
    assert exhaustive_norm("counting", EVENS).value.status == "infinite"
    assert exhaustive_norm("counting", FiniteSet((1, 2))).value == exact(0)
    assert exhaustive_norm("harmonic", EVENS).value.status == "infinite"
    assert exhaustive_norm("harmonic", POW2).value == exact(0)
    assert exhaustive_norm("harmonic", THIN).value.status == "bracket"


def test_geometric_norm_is_zero_for_every_backend():
    for a in (EVENS, MESSY, AP_UNION, HALF_BLOCKS, THIN, FiniteSet((9,)),
              HorizonSet.from_members(128, (1, 2))):
        assert exhaustive_norm("geometric", a).value == exact(0)


def test_norm_ignores_finite_modifications():
    bump = FiniteSet((1, 5, 11, 200))
    for a in (EVENS, THIRDS, AP_UNION):
        for name in ("phi-prefix", "psi-dyadic", "phi-alpha:a=2"):
            base = exhaustive_norm(name, a).value
            more = exhaustive_norm(name, boolean_op(a, bump, "union")).value
            less = exhaustive_norm(name, boolean_op(a, bump, "difference")).value
            assert base == more == less


def test_profiles_are_nonincreasing_certified_uppers():
    for a in (EVENS, MESSY, CYCLE_BLOCKS, POW2):
        for name in ("phi-prefix", "psi-dyadic", "phi-alpha:a=2", "geometric"):
            est = exhaustive_norm(name, a)
            prev = None
            for cut, up in est.profile:
                if est.value.status == "exact":
                    assert up >= est.value.value
                if prev is not None:
                    assert up <= prev
                prev = up


def test_a_bracketed_horizon_tail_gives_a_bracketed_norm():
    # the weighted tail of a horizon set is the bracket [0, 1], read off no
    # member; the norm keeps it rather than printing its upper end as evidence
    h = parse_set("horizon H=16 bits=ff00")
    est = exhaustive_norm("weighted:f=harmonic", h)
    assert est.value == bracket(0, 1, "weighted supremum has no closed form on this backend")
    assert not est.exact
    assert exhaustive_norm("phi-prefix", h).value.status == "observational"


def test_horizon_norms_are_observational_with_empty_profile():
    h = HorizonSet.from_members(4096, range(0, 4096, 3))
    est = exhaustive_norm("phi-prefix", h)
    assert est.value.status == "observational"
    assert est.profile == () and not est.exact


def test_custom_profile_cuts_are_respected():
    est = exhaustive_norm("phi-prefix", EVENS, profile_cuts=[10, 100])
    assert [c for c, _ in est.profile] == [10, 100]


# ---------------------------------------------------------------------------
# the sandwich between psi and the upper density


def test_psi_sandwich_on_mixed_backends():
    rng = random.Random(0xE1)
    cases = [EVENS, THIRDS, MESSY, HALF_BLOCKS, CYCLE_BLOCKS, DIRTY_BLOCKS]
    for _ in range(30):
        m = rng.randrange(2, 40)
        rs = tuple(sorted(rng.sample(range(m), rng.randrange(1, m))))
        cases.append(PeriodicSet(m, rs))
    for a in cases:
        psi = exhaustive_norm("psi-dyadic", a).value.value
        d = exhaustive_norm("phi-prefix", a).value.value
        assert psi / 2 <= d <= 16 * psi


# ---------------------------------------------------------------------------
# Exh membership


def test_exh_membership_classification():
    assert exh_member("psi-dyadic", POW2) == "in"
    assert exh_member("psi-dyadic", FiniteSet((4, 5))) == "in"
    assert exh_member("phi-prefix", EVENS) == "out"
    assert exh_member("counting", EVENS) == "out"
    assert exh_member("phi-prefix", HorizonSet.from_members(256, range(0, 256, 2))) == "unknown"
    # vanishing fill with unbounded slices: in Exh(psi) but its harmonic mass
    # cannot be certified either way
    assert exh_member("psi-dyadic", THIN) == "in"
    assert exh_member("harmonic", THIN) == "unknown"


# ---------------------------------------------------------------------------
# axiom batteries


def test_axiom_battery_passes_for_the_catalog(rng):
    sets = [EVENS, THIRDS, MESSY] + [random_structured_set(rng) for _ in range(5)]
    for name in ("phi-prefix", "psi-dyadic", "phi-alpha:a=2", "phi-infty-trunc:a=2",
                 "counting", "harmonic", "geometric", "weighted:f=harmonic"):
        rep = check_lscsm_axioms(name, sets)
        assert rep.passed, (name, rep.failures)


def test_axiom_battery_flags_a_broken_functional():
    # constant nonzero value fails the empty-set axiom outright
    rep = check_lscsm_axioms("phi-prefix", [EVENS],
                             eval_fn=lambda s, m: exact(Fraction(1, 3)))
    assert not rep.passed
    assert any(r.name == "empty-null" and r.status == "fail" for r in rep.records)


def test_axiom_battery_evaluates_each_set_once_per_probe(rng):
    sets = [EVENS, THIRDS, MESSY] + [random_structured_set(rng) for _ in range(5)]
    calls = {}

    def counted(s, m):
        for i, x in enumerate(sets):
            if s is x:
                calls[i, m] = calls.get((i, m), 0) + 1
        return lscsm_eval("phi-prefix", s, m)

    rep = check_lscsm_axioms("phi-prefix", sets, eval_fn=counted)
    assert rep == check_lscsm_axioms("phi-prefix", sets)
    assert calls and max(calls.values()) == 1


def test_axiom_battery_skips_sets_narrower_than_the_probe():
    # a horizon of 64 has no value at the probe length 96: the records that
    # need it are skipped, the rest are still judged
    narrow = [HorizonSet.from_members(64, [8, 9, 10, 11, 12, 13, 14, 15, 24, 25]),
              HorizonSet.from_members(64, [1, 2])]
    rep = check_lscsm_axioms("phi-prefix", narrow + [FiniteSet((1, 5)), EVENS])
    status = {r.name: (r.status, r.detail) for r in rep.records}
    for name in ("prefix-monotone[0]", "prefix-monotone[1]",
                 "monotone[0,1]", "monotone[0,2]", "monotone[1,2]"):
        assert status[name] == ("skip", "beyond the horizon: elements beyond horizon 64")
    assert not any(name.startswith("subadditive[0") or name.startswith("subadditive[1")
                   for name in status)
    assert status["prefix-monotone[2]"][0] == status["subadditive[2,3]"][0] == "pass"
    assert rep.passed


def test_axiom_battery_flags_non_monotone_evaluation():
    # an "evaluation" that shrinks with the prefix length breaks lower
    # semicontinuity; the battery must notice
    def shrinking(s, m):
        if not s.elements_in(0, m):
            return exact(0)
        return exact(Fraction(1, m))

    rep = check_lscsm_axioms("phi-prefix", [EVENS], eval_fn=shrinking)
    assert any(r.name.startswith("prefix-monotone") and r.status == "fail"
               for r in rep.records)


_TWIN_EQUAL_NORMS = ("phi-prefix", "psi-dyadic", "counting", "harmonic", "geometric",
                     "weighted:f=harmonic")
_TWIN_PHI = ("phi-alpha:a=1", "phi-alpha:a=2", "phi-alpha:a=4", "phi-infty-trunc:a=2",
             "phi-infty:eps=1/4")


def test_a_periodic_set_and_its_ap_union_twin_agree(rng):
    # the twins hold the same members, and every evaluator but the phi_alpha
    # family's reads them alike. That family's deviation bound B is per
    # backend (m + exceptions + 1 for a periodic set, 2^terms + exceptions + 2
    # for an AP union), and B sets its scan window and envelope, so there a
    # tail may be exact on one side and a bracket on the other; they overlap
    sets = [parse_set("per m=3 R={0,2}"), parse_set("per m=4 R={0}")]
    while len(sets) < 27:
        s = random_structured_set(rng)
        if isinstance(s, PeriodicSet):
            sets.append(s)
    meets = lambda x, y: x.lower is None or y.upper is None or x.lower <= y.upper
    for s in sets:
        u = as_ap_union(s)
        for name in FUNCTIONAL_NAMES:
            f = get_functional(name).evaluate
            assert f(s, DEFAULT_CONFIG) == f(u, DEFAULT_CONFIG), (s, name)
        assert prefix_profile(s) == prefix_profile(u), s
        assert window_profile(s) == window_profile(u), s
        for name in _TWIN_EQUAL_NORMS:
            assert exhaustive_norm(name, s) == exhaustive_norm(name, u), (s, name)
        for name in _TWIN_PHI:
            for cut in (0, 1, 5, 17, 64):
                x, y = tail_value(name, s, cut), tail_value(name, u, cut)
                if x.status == y.status == "exact":
                    assert x == y, (s, name, cut)
                else:
                    assert meets(x, y) and meets(y, x), (s, name, cut, x, y)
