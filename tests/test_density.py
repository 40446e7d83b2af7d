import dataclasses
import math
import random
import time
from fractions import Fraction
from functools import partial

import pytest

from densitas import density as density_module
from densitas.config import DEFAULT_CONFIG
from densitas.density import (
    check_submeasure_axioms,
    check_upper_density_axioms,
    counting_measure,
    dom_membership,
    eventual_density,
    geometric_measure,
    get_functional,
    get_weight,
    lower_asymptotic,
    lower_dual,
    prefix_profile,
    upper_asymptotic,
    upper_banach,
    upper_buck,
    validate_weight,
    weighted_prefix_profile,
    weighted_upper,
    window_profile,
)
from densitas.exceptions import ModulusBudgetExceeded, NotErdosUlam, UnsupportedBackend
from densitas.exhaust import exhaustive_norm, tail_value
from densitas.metric import evaluate_measure
from densitas.natset import (
    APTerm,
    APUnionSet,
    DyadicBlockSet,
    FillRule,
    FiniteSet,
    HorizonSet,
    PeriodicSet,
    complement,
    drop_below,
    parse_set,
)
from densitas.samples import block_battery
from densitas.values import bracket, exact

from conftest import (
    brute_geometric,
    brute_members,
    brute_prefix_ratios,
    brute_window_max,
    field_period,
    random_structured_set,
    reference_window_max,
)


EVENS = PeriodicSet(2, (0,))
ODDS = PeriodicSet(2, (1,))
THIRDS = PeriodicSet(3, (1,))
AP_UNION = APUnionSet((APTerm(4, 0), APTerm(6, 3)))
HALF_BLOCKS = DyadicBlockSet(FillRule.constant(Fraction(1, 2)))
CYCLE_BLOCKS = DyadicBlockSet(FillRule.cycled([Fraction(1, 2), Fraction(1, 4)]))
POW2 = DyadicBlockSet(FillRule.vanishing(lambda n: Fraction(1, 2 ** n), "2^-n",
                                         slice_growth="bounded"))
THIN = DyadicBlockSet(FillRule.vanishing(lambda n: Fraction(1, n), "1/n"))


def test_upper_asymptotic_periodic_values():
    assert upper_asymptotic(EVENS).value == exact(Fraction(1, 2))
    assert upper_asymptotic(THIRDS).value == exact(Fraction(1, 3))
    assert upper_asymptotic(AP_UNION).value == exact(Fraction(5, 12))
    assert upper_asymptotic(FiniteSet((1, 100, 10**9))).value == exact(0)


def test_lower_asymptotic_on_finite_periodic_and_horizon_sets():
    assert lower_asymptotic(FiniteSet((1, 2, 3))).value == exact(0)
    # past the exceptions the prefix ratios settle on the density
    a = parse_set("per m=6 R={1,3} t=2 add={0}")
    ratios = brute_prefix_ratios(brute_members(a, 6000), 6000)
    assert lower_asymptotic(a).value == exact(Fraction(1, 3))
    assert abs(min(ratios[3000:]) - Fraction(1, 3)) < Fraction(1, 1000)
    # a horizon set reports its last prefix ratio, as evidence only
    h = parse_set("horizon H=16 bits=ff00")
    v = lower_asymptotic(h).value
    assert (v.status, v.value) == ("observational",
                                   brute_prefix_ratios(brute_members(h, 16), 16)[-1])


def test_prefix_ratio_brute_force_agrees():
    # the exact limit must match a long empirical prefix scan
    members = brute_members(AP_UNION, 1 << 16)
    c = 0
    ratios = []
    for n in range(1, 1 << 16):
        if n in members:
            c += 1
        ratios.append(c / n)
    tail_max = max(ratios[len(ratios) // 2:])
    assert abs(tail_max - 5 / 12) < 5e-3


def test_block_upper_density_closed_form():
    assert upper_asymptotic(HALF_BLOCKS).value.value == Fraction(2, 3)
    assert lower_asymptotic(HALF_BLOCKS).value.value == Fraction(1, 2)
    assert upper_asymptotic(CYCLE_BLOCKS).value.value == Fraction(5, 9)
    assert upper_asymptotic(POW2).value.value == 0
    assert upper_asymptotic(THIN).value.value == 0


def test_block_closed_form_against_brute_force():
    # prefix maxima over a deep scan should approach the closed form from below
    best = 0.0
    c = 0
    N = 1 << 18
    for n in range(1, N):
        if CYCLE_BLOCKS.member(n):
            c += 1
        if n > N // 8:
            best = max(best, c / n)
    assert abs(best - 5 / 9) < 5e-3


def test_upper_banach_values():
    assert upper_banach(EVENS).value == exact(Fraction(1, 2))
    assert upper_banach(AP_UNION).value == exact(Fraction(5, 12))
    assert upper_banach(HALF_BLOCKS).value.value == 1
    assert upper_banach(POW2).value.value == 0
    assert upper_banach(THIN).value.value == 1
    assert upper_banach(FiniteSet(tuple(range(100)))).value == exact(0)


def test_buck_values():
    assert upper_buck(EVENS).value == exact(Fraction(1, 2))
    assert upper_buck(AP_UNION).value == exact(Fraction(5, 12))
    assert upper_buck(HALF_BLOCKS).value.value == 1
    assert upper_buck(POW2).value.value == 0
    assert upper_buck(FiniteSet((5,))).value == exact(0)


def test_buck_dominates_banach_dominates_asymptotic():
    for s in (EVENS, THIRDS, AP_UNION, HALF_BLOCKS, CYCLE_BLOCKS, POW2, THIN):
        da = upper_asymptotic(s).value.value
        db = upper_banach(s).value.value
        du = upper_buck(s).value.value
        assert da <= db <= du


def test_buck_is_banach_on_every_backend_with_a_tail():
    rng = random.Random(0xB0C)
    sets = [random_structured_set(rng) for _ in range(300)] + list(block_battery(80, seed=5))
    for s in sets:
        assert upper_buck(s).value == upper_banach(s).value, s
    with pytest.raises(UnsupportedBackend, match="^cover density needs tail structure; "
                                                 "horizon evidence bounds no cover$"):
        upper_buck(HorizonSet.from_members(16, range(8, 16)))


def test_horizon_estimates_are_observational_only():
    h = HorizonSet.from_members(2048, [2 * k for k in range(1024)])
    est = upper_asymptotic(h)
    assert est.value.status == "observational"
    assert not est.value.is_certified
    assert est.profile is not None and est.profile.entries
    est_b = upper_banach(h)
    assert est_b.value.status == "observational"
    with pytest.raises(UnsupportedBackend):
        upper_buck(h)
    assert dom_membership(h, "d-star").verdict == "unknown"


def test_weighted_upper_exact_on_periodic():
    assert weighted_upper(EVENS, "harmonic").value == exact(Fraction(1, 2))
    assert weighted_upper(AP_UNION, "harmonic").value == exact(Fraction(5, 12))
    assert weighted_upper(THIRDS, "constant").value == exact(Fraction(1, 3))
    assert weighted_upper(FiniteSet((3, 7)), "harmonic").value == exact(0)


def test_weighted_observational_ratio_converges_slowly():
    # at horizon 1e5 the harmonic-weighted ratio of the evens is still far
    # from its limit 1/2; the profile must report the honest value
    prof = weighted_prefix_profile(EVENS, get_weight("harmonic"),
                                   DEFAULT_CONFIG, lengths=[10**5])
    v = float(prof.entries[-1][1])
    assert abs(v - 0.5286659) < 1e-4
    assert prof.method == "observational"


def test_weighted_profile_stops_at_the_weight_horizon():
    harmonic = get_weight("harmonic")
    cuts = [n for n, _ in weighted_prefix_profile(
        EVENS, harmonic, DEFAULT_CONFIG.with_overrides(weight_horizon=1000)).entries]
    assert cuts == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000]
    # the smaller of the two horizons wins
    narrow = DEFAULT_CONFIG.with_overrides(prefix_horizon=300, weight_horizon=1000)
    assert weighted_prefix_profile(EVENS, harmonic, narrow).entries[-1][0] == 300


def test_invalid_weights_are_rejected():
    with pytest.raises(NotErdosUlam):
        weighted_upper(EVENS, "doubling")  # term/sum ratio does not vanish
    with pytest.raises(NotErdosUlam):
        weighted_upper(EVENS, "halving")  # partial sums converge
    rep = validate_weight(get_weight("harmonic"))
    assert rep.passed
    rep_bad = validate_weight(get_weight("halving"))
    assert any(r.name == "divergent-partials" for r in rep_bad.failures)


def test_a_registered_weight_is_validated_once(monkeypatch):
    calls = []

    def counting(w):
        calls.append(w.name)
        return validate_weight(w)

    monkeypatch.setattr(density_module, "validate_weight", counting)
    density_module._registered_report.cache_clear()
    family = [EVENS, THIRDS, AP_UNION, FiniteSet((1, 5)), parse_set("per m=6 R={1,3}")]
    assert check_upper_density_axioms("weighted:f=harmonic", family).passed
    assert calls == ["harmonic"]
    # a caller-built weight equals the registered one by name alone, so it
    # is validated on each call; an invalid registered weight is validated
    # once and still refused on each call
    mine = dataclasses.replace(get_weight("harmonic"))
    for _ in range(2):
        assert weighted_upper(EVENS, mine).value == exact(Fraction(1, 2))
        for name in ("doubling", "halving"):
            with pytest.raises(NotErdosUlam):
                weighted_upper(EVENS, name)
    assert calls == ["harmonic", "harmonic", "doubling", "halving", "harmonic"]


def test_lower_dual_values():
    assert lower_dual(EVENS, "d-star").value == exact(Fraction(1, 2))
    assert lower_dual(AP_UNION, "bd-star").value == exact(Fraction(5, 12))
    assert lower_dual(HALF_BLOCKS, "d-star").value == exact(Fraction(1, 2))
    assert lower_dual(HALF_BLOCKS, "bd-star").value == exact(0)
    assert lower_dual(FiniteSet((1, 2)), "d-star").value == exact(0)


def test_lower_dual_of_a_block_set_is_its_lower_asymptotic_density():
    for blocks in (HALF_BLOCKS, CYCLE_BLOCKS, POW2, THIN):
        assert lower_dual(blocks, "d-star") == lower_asymptotic(blocks)


def test_lower_dual_of_a_huge_modulus_is_bounded():
    # the complement of a periodic set reads every residue class; past the
    # modulus budget it used to run on unbounded
    t = time.perf_counter()
    with pytest.raises(ModulusBudgetExceeded):
        lower_dual(parse_set("per m=100000000000 R={0}"))
    assert time.perf_counter() - t < 5.0


def test_dom_membership_verdicts():
    assert dom_membership(EVENS, "d-star").verdict == "in"
    assert dom_membership(AP_UNION, "buck").verdict == "in"
    out = dom_membership(HALF_BLOCKS, "d-star")
    assert out.verdict == "out"
    assert (out.upper.value, out.lower.value) == (Fraction(2, 3), Fraction(1, 2))
    out_b = dom_membership(HALF_BLOCKS, "bd-star")
    assert out_b.verdict == "out"
    assert (out_b.upper.value, out_b.lower.value) == (Fraction(1), Fraction(0))


def test_dom_membership_with_supplied_bounds():
    up = bracket(Fraction(1, 2), Fraction(3, 4))
    lo = bracket(Fraction(0), Fraction(1, 4))
    v = dom_membership(EVENS, "bd-star", bounds=(up, lo))
    assert v.verdict == "out"
    overlapping = dom_membership(EVENS, "bd-star",
                                 bounds=(bracket(0, 1), bracket(0, 1)))
    assert overlapping.verdict == "unknown"


def test_window_profile_fekete_monotone():
    for s in (EVENS, AP_UNION, THIRDS):
        prof = window_profile(s)
        assert prof.method == "exact-sweep"
        ratios = [r for _, r in prof.entries]
        assert all(b <= a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] >= eventual_density(s)


def test_window_profile_finite_and_block_sets_against_brute_windows():
    lengths = (1, 2, 3, 8, 40)
    fin = FiniteSet((0, 3, 4, 5, 9, 30, 31, 200))
    prof = window_profile(fin, lengths=lengths)
    assert prof.method == "exact-sweep"
    assert prof.entries == tuple(
        (n, Fraction(brute_window_max(fin, n, range(201)), n)) for n in lengths)
    # slices that grow without bound hold a run of every length
    for blocks in (HALF_BLOCKS, THIN, CYCLE_BLOCKS):
        prof = window_profile(blocks, lengths=lengths)
        assert prof.method == "exact-sweep"
        assert all(brute_window_max(blocks, n, range(64 * n)) == n for n in lengths)
        assert all(r == 1 for _, r in prof.entries)
    # bounded slices: a probe of the members below max(4n, 64), a lower
    # bound on the true maximum; the extras are a run only a long probe sees
    sparse = DyadicBlockSet(POW2.fill, extras=tuple(range(150, 158)))
    prof = window_profile(sparse, lengths=lengths)
    assert prof.method == "candidate-probe"
    assert prof.entries[-1] == (40, Fraction(9, 40))  # 128 and the extras
    for n, r in prof.entries:
        span = max(4 * n, 64)
        seen = FiniteSet(tuple(sorted(brute_members(sparse, span))))
        assert r == Fraction(brute_window_max(seen, n, range(span)), n)
        assert r * n <= brute_window_max(sparse, n, range(1 << 12))


def test_window_profile_past_the_sweep_budget_probes_candidate_starts():
    lengths = (1, 4, 7, 30)
    small = dataclasses.replace(DEFAULT_CONFIG, window_sweep_budget=16)
    # threshold plus modulus past the budget: starts below the threshold and
    # 64 past it, which for m = 40 still cover a full period
    per = parse_set("per m=40 R={1,17,30} t=8 add={0,2,3,4,5,6,7}")
    prof = window_profile(per, small, lengths)
    assert prof.method == "candidate-probe"
    assert prof.entries == tuple(
        (n, Fraction(brute_window_max(per, n, range(48)), n)) for n in lengths)
    assert window_profile(per, lengths=lengths).entries == prof.entries
    # an AP union past four times the budget: starts at 0, the threshold,
    # the terms' least members and the extras, each a lower bound
    union = APUnionSet((APTerm(12, 1), APTerm(10, 3, 2)), extras=(55, 56, 57, 58))
    prof = window_profile(union, small, lengths)
    assert prof.method == "candidate-probe"
    assert prof.entries[1] == (4, Fraction(1))
    starts = (0, union.threshold, 1, 23, 55, 56, 57, 58)
    for n, r in prof.entries:
        assert r == Fraction(brute_window_max(union, n, starts), n)
        assert r <= Fraction(brute_window_max(union, n, range(union.threshold + 60)), n)


def test_window_profile_brute_force_one_length():
    prof = dict(window_profile(AP_UNION, lengths=[8]).entries)
    brute = max(AP_UNION.count_range(k, k + 8) for k in range(300))
    assert prof[8] == Fraction(brute, 8)


def test_window_profile_horizon_truncation():
    h = HorizonSet.from_members(512, [k for k in range(100, 140)])
    prof = dict(window_profile(h, lengths=[16]).entries)
    assert prof[16] == Fraction(16, 16)  # a fully packed window exists


def _random_horizon(rng):
    H = rng.randrange(1, 90)
    density = rng.random()
    return HorizonSet.from_members(H, [x for x in range(H) if rng.random() < density])


def _brute_starts(a, n):
    """Starts whose windows hold the maximum, read from the fields: every
    place below the largest member of a finite set, one period past the
    threshold of an eventually periodic set, and the places whose window
    ends inside a horizon (None once n passes it: every member counts)."""
    if isinstance(a, HorizonSet):
        return range(a.horizon - n + 1) if n <= a.horizon else None
    if isinstance(a, FiniteSet):
        return range(max(a.elements, default=0) + 1)
    t, p, _ = field_period(a)
    return range(t + p)


def test_window_kernel_matches_brute_windows():
    rng = random.Random(33)
    for _ in range(120):
        a = random_structured_set(rng) if rng.random() < 0.6 else _random_horizon(rng)
        H = a.horizon if isinstance(a, HorizonSet) else 40
        lengths = sorted({1, 2, 3, rng.randrange(1, H + 1), H, H + 1, H + rng.randrange(1, 30)})
        prof = window_profile(a, lengths=lengths)
        assert prof.method == "exact-sweep"
        for n, r in prof.entries:
            starts = _brute_starts(a, n)
            want = (brute_window_max(a, n, starts) if starts is not None
                    else len(brute_members(a, a.horizon)))
            assert r == Fraction(want, n), (a, n)


@pytest.mark.parametrize("past", [-1, 0, 1])
def test_window_sweeps_switch_to_candidates_just_past_the_budget(past):
    # t + m against the budget for a periodic set, t0 + l against four
    # times the budget for an AP union: exact up to the bound, candidate
    # starts one past it
    budget = 40
    small = dataclasses.replace(DEFAULT_CONFIG, window_sweep_budget=budget)
    lengths = (1, 2, 5, 12, 30, 64, 200)
    per = PeriodicSet(7, (0, 3, 4), budget + past - 7, added=(1, 2, 30), removed=(14, 25))
    union = APUnionSet((APTerm(4, 1, 3), APTerm(6, 2), APTerm(12, 4 * budget + past - 12)),
                       extras=(5, 6, 7, 50))
    assert union.threshold + 12 == 4 * budget + past
    for a, bound, candidates in (
            (per, budget, [*range(min(per.threshold, 64)),
                           *range(per.threshold, per.threshold + 64)]),
            (union, 4 * budget, [0, union.threshold, 5, 6, 7, 50,
                                 *(u.min_element for u in union.terms)])):
        prof = window_profile(a, small, lengths)
        t, p, _ = field_period(a)
        assert t + p == bound + past
        exact_sweep = past <= 0
        assert prof.method == ("exact-sweep" if exact_sweep else "candidate-probe")
        starts = range(t + p) if exact_sweep else candidates
        assert prof.entries == tuple(
            (n, Fraction(brute_window_max(a, n, starts), n)) for n in lengths)


def _reference_profile(a, config, lengths):
    counts = [reference_window_max(a, n, config) for n in lengths]
    return (tuple((n, Fraction(c, n)) for n, (c, _) in zip(lengths, counts)),
            "exact-sweep" if all(ok for _, ok in counts) else "candidate-probe")


def test_window_profile_keeps_the_per_start_scan_entries_and_method():
    rng = random.Random(5)
    small = dataclasses.replace(DEFAULT_CONFIG, window_sweep_budget=24)
    sparse = DyadicBlockSet(POW2.fill, extras=tuple(range(150, 158)))
    sets = ([random_structured_set(rng) for _ in range(40)]
            + [_random_horizon(rng) for _ in range(20)]
            + list(block_battery(6, 33)) + [POW2, THIN, HALF_BLOCKS, CYCLE_BLOCKS, sparse]
            + [parse_set(text) for text in (
                "per m=9973 R={1,5,77,900,4000} t=30", "ap a=9! h=1 | ap a=6 h=1",
                "per m=5 R={} t=9 add={1,7}", "blocks f(n)=cycle{0}@3",
                "horizon H=512 bits=" + "5" * 128, "horizon H=9 bits=1ff")])
    for a in sets:
        H = a.horizon if isinstance(a, HorizonSet) else 100
        lengths = [1, 2, 3, 7, 8, 40, 64, 256, H, H + 5]
        for config in (DEFAULT_CONFIG, small):
            prof = window_profile(a, config, lengths)
            assert (prof.entries, prof.method) == _reference_profile(a, config, lengths), a
        prof = window_profile(a)
        assert (prof.entries, prof.method) == _reference_profile(
            a, DEFAULT_CONFIG, [n for n, _ in prof.entries]), a


_PROFILES = [window_profile, prefix_profile,
             pytest.param(partial(weighted_prefix_profile, w=get_weight("harmonic")),
                          id="weighted_prefix_profile")]


@pytest.mark.parametrize("profile", _PROFILES)
@pytest.mark.parametrize("bad", [0, -3, -4])
def test_profiles_refuse_a_length_below_one(profile, bad):
    for lengths in ([bad], [8, bad]):
        with pytest.raises(ValueError, match=f"profile length {bad} is below 1"):
            profile(EVENS, lengths=lengths)


@pytest.mark.parametrize("profile", _PROFILES)
def test_profiles_of_no_lengths_are_empty(profile):
    for a in (EVENS, HorizonSet.from_members(16, [3, 4])):
        assert profile(a, lengths=[]).entries == ()


_EVENS_64 = "horizon H=64 bits=" + "5" * 16
# (literal, cap of all three profiles or None for the defaults, prefix
# lengths, window lengths); the weighted profile reads the prefix lengths
_DEFAULT_LENGTHS = [
    ("per m=2 R={0}", None,
     [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
      100000],
     [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384]),
    ("per m=2 R={0}", 0, [], []),
    ("per m=2 R={0}", 5, [1, 2, 4, 5], [1, 2, 4]),
    *((f"horizon H={h} bits={h}", cap, [], []) for h in (0, 1) for cap in (None, 0, 5)),
    ("horizon H=2 bits=2", None, [1], [1]),
    ("horizon H=2 bits=2", 0, [], []),
    ("horizon H=2 bits=2", 5, [1], [1]),
    ("horizon H=3 bits=5", None, [1, 2], [1]),
    ("horizon H=3 bits=5", 0, [], []),
    ("horizon H=3 bits=5", 5, [1, 2], [1]),
    (_EVENS_64, None, [1, 2, 4, 8, 16, 32, 63], [1, 2, 4, 8, 16, 32]),
    (_EVENS_64, 0, [], []),
    (_EVENS_64, 5, [1, 2, 4, 5], [1, 2, 4]),
]


@pytest.mark.parametrize("text, cap, prefix, window", [
    pytest.param(*case, id=f"{case[0]}, cap={case[1]}") for case in _DEFAULT_LENGTHS])
def test_default_profile_lengths_follow_one_rule(text, cap, prefix, window):
    # powers of two up to each profile's cap, and the cap itself for the two
    # prefix profiles; on a horizon H the caps fall to H - 1 and H // 2
    config = DEFAULT_CONFIG if cap is None else DEFAULT_CONFIG.with_overrides(
        prefix_horizon=cap, window_max=cap, weight_horizon=cap)
    a = parse_set(text)
    assert [n for n, _ in prefix_profile(a, config).entries] == prefix
    assert [n for n, _ in window_profile(a, config).entries] == window
    weighted = weighted_prefix_profile(a, get_weight("harmonic"), config)
    assert [n for n, _ in weighted.entries] == prefix


def test_prefix_profile_exact_counts():
    prof = dict(prefix_profile(EVENS, lengths=[10, 100]).entries)
    assert prof[10] == Fraction(5, 10)
    assert prof[100] == Fraction(50, 100)


def test_counting_measure():
    assert counting_measure(FiniteSet((1, 2, 3))).value == 3
    assert counting_measure(EVENS).status == "infinite"
    h = HorizonSet.from_members(64, [1, 2])
    c = counting_measure(h)
    assert c.status == "bracket" and c.lower == 2 and c.upper is None


def test_counting_measure_agrees_with_the_counting_tail(rng):
    # the counting functional and the counting lscsm at cut 0 are one
    # quantity; a cycled zero fill with a nonzero head is finite but not empty
    head = DyadicBlockSet(FillRule.cycled([0], threshold=3, head=[0, 1, 1]))
    assert sorted(brute_members(head, 256)) == [2, 3, 4, 5, 6, 7]
    sets = [random_structured_set(rng) for _ in range(200)] + [
        head,
        DyadicBlockSet(FillRule.cycled([0], threshold=2, head=[1, 1]),
                       extras=(9,), removals=(2,)),
        DyadicBlockSet(FillRule.cycled([0, Fraction(1, 3)], threshold=1, head=[1])),
        HALF_BLOCKS, CYCLE_BLOCKS, POW2, THIN,
        PeriodicSet(3, (), 5, (1, 2)), APUnionSet((), (3, 7)),
    ]
    compared = 0
    for a in sets:
        m, t = counting_measure(a), tail_value("counting", a, 0)
        if {m.status, t.status} <= {"exact", "infinite"}:
            assert m == t, a
            compared += 1
    assert compared >= 200
    assert counting_measure(head) == exact(6)
    assert counting_measure(THIN).status == "infinite"  # slices grow without bound


def test_the_three_measures_agree_with_their_tails(rng):
    # counting, harmonic and geometric are measures: the value eval prints
    # is the lscsm tail at cut 0, brackets and notes included, and a tail at
    # cut n is the measure of the set's own tail A ∖ n. A cycled zero fill
    # with a nonzero head is finite but not empty
    head = DyadicBlockSet(FillRule.cycled([0], threshold=3, head=[0, 1, 1]))
    assert sorted(brute_members(head, 256)) == [2, 3, 4, 5, 6, 7]
    specials = [
        head,
        DyadicBlockSet(FillRule.cycled([0], threshold=2, head=[1, 1]),
                       extras=(9,), removals=(2,)),
        DyadicBlockSet(FillRule.cycled([0, Fraction(1, 3)], threshold=1, head=[1])),
        HALF_BLOCKS, CYCLE_BLOCKS, POW2, THIN,
        PeriodicSet(3, (), 5, (1, 2)), APUnionSet((), (3, 7)),
        HorizonSet.from_members(64, [1, 2]), HorizonSet.from_members(2048, range(0, 2048, 3)),
    ]
    sets = [random_structured_set(rng) for _ in range(200)] + specials
    for a in sets:
        for name in ("counting", "harmonic", "geometric"):
            assert evaluate_measure(name, a) == tail_value(name, a, 0), (name, a)
        if isinstance(a, (DyadicBlockSet, HorizonSet)):
            continue
        for n in (1, 5, 17, 64):
            tail = drop_below(a, n)
            for name in ("counting", "harmonic", "geometric"):
                assert tail_value(name, a, n) == evaluate_measure(name, tail), (name, a, n)
            if isinstance(a, FiniteSet):
                assert tail_value("counting", a, n) == exact(len(tail.elements))
                assert tail_value("harmonic", a, n) == exact(
                    sum((Fraction(1, x + 1) for x in tail.elements), Fraction(0)))
                assert tail_value("geometric", a, n) == exact(
                    sum((Fraction(1, 2 ** (x + 1)) for x in tail.elements), Fraction(0)))
            else:
                # the tails of eventually periodic sets are exact series
                assert tail_value("geometric", a, n) == exact(
                    brute_geometric(field_period(tail))), (a, n)
    assert counting_measure(head) == exact(6)
    assert counting_measure(THIN).status == "infinite"  # slices grow without bound
    per = parse_set("per m=3 R={0}")
    assert tail_value("geometric", per, 0) == geometric_measure(per) == exact(Fraction(4, 7))
    assert tail_value("geometric", per, 1) == exact(Fraction(1, 14))
    # the lower end is one count for both, the members below 2^16
    assert counting_measure(POW2) == tail_value("counting", POW2, 0) == bracket(
        15, None, "vanishing fill: tail slice occupancy undetermined")


def test_a_long_zero_head_is_read_quickly():
    # the finite part is read up to the last nonempty block, not the threshold
    a = DyadicBlockSet(FillRule.cycled([0], threshold=300_000), extras=(5,))
    t = time.perf_counter()
    assert counting_measure(a) == exact(1)
    assert exhaustive_norm("phi-prefix", a).value == exact(0)
    assert time.perf_counter() - t < 3.0


def test_geometric_measure_exact_series():
    assert geometric_measure(EVENS) == exact(Fraction(2, 3))
    assert geometric_measure(ODDS) == exact(Fraction(1, 3))
    u = geometric_measure(AP_UNION)
    partial = sum(Fraction(1, 2 ** (x + 1)) for x in AP_UNION.elements_in(0, 200))
    assert u.status == "exact"
    assert 0 <= u.value - partial < Fraction(1, 2 ** 190)


def test_geometric_measure_matches_the_period_oracle(rng):
    # the exact series against the head below the threshold plus one period
    # past it times 2^p / (2^p - 1): periodic sets with and without
    # exceptions, a table-kept complement, AP unions with unstarted terms
    # (start > 0), overlapping terms and exceptions on and off the rule
    sets = [PeriodicSet(6, (1, 4), 9, (0, 2), (4, 7)),
            PeriodicSet(1, (0,), 3, (), (0, 2)),
            PeriodicSet(5, (), 6, (1, 5)),
            complement(PeriodicSet(12, (0, 5, 7), 4, (1,), (0,))),
            APUnionSet((APTerm(4, 1, 3), APTerm(6, 3, 1)), extras=(0, 2), removals=(13, 27)),
            APUnionSet((APTerm(2, 0, 5), APTerm(3, 0, 4), APTerm(12, 6, 0)), removals=(6,)),
            APUnionSet((APTerm(7, 3, 2),), extras=(1, 4, 30)),
            APUnionSet((), extras=(0, 9))]
    sets += [s for s in (random_structured_set(rng) for _ in range(400))
             if isinstance(s, (PeriodicSet, APUnionSet))]
    for a in sets:
        assert geometric_measure(a) == exact(brute_geometric(field_period(a))), a


def test_geometric_measure_bracket_on_big_moduli():
    big = APUnionSet((APTerm(math.factorial(9), 1, 0, "9!"),))
    g = geometric_measure(big)
    assert g.status == "bracket"
    assert g.upper - g.lower <= Fraction(1, 2 ** 4096)
    assert g.lower >= Fraction(1, 4)  # element 1 contributes 1/4


def test_a_geometric_tail_past_the_budget_names_the_cut():
    # the set's modulus and threshold are small; the cut 5000 is not
    t = tail_value("geometric", PeriodicSet(3, (0,)), 5000)
    assert t.status == "bracket"
    assert t.note == "cut beyond the exponent budget; tail bounded by residual mass"
    assert t.upper - t.lower == Fraction(1, 2 ** 4096)


def test_upper_density_axiom_reports():
    fam = [EVENS, ODDS, THIRDS, AP_UNION]
    for fn in ("d-star", "bd-star", "buck", "weighted:f=harmonic"):
        rep = check_upper_density_axioms(fn, fam)
        assert rep.passed, rep.failures


def test_submeasure_axiom_reports():
    fam = [EVENS, ODDS, FiniteSet((0, 1, 2)), FiniteSet(())]
    for fn in ("geometric", "counting", "d-star"):
        rep = check_submeasure_axioms(fn, fam)
        assert rep.passed, rep.failures


def test_both_density_batteries_judge_union_pairs_alike():
    # counting values of horizon sets are open brackets [n, infinity), which
    # refute neither monotonicity nor subadditivity
    fam = [HorizonSet.from_members(64, range(8, 16)), HorizonSet.from_members(64, range(4, 40, 3)),
           HorizonSet.from_members(64, [0, 1]), FiniteSet((1, 2)), EVENS, ODDS]

    def pair_verdicts(rep):
        return [(r.name, r.status) for r in rep.records
                if r.name.startswith(("monotone", "subadditive"))]

    for fn in ("counting", "geometric", "d-star", "bd-star"):
        up = pair_verdicts(check_upper_density_axioms(fn, fam))
        assert up == pair_verdicts(check_submeasure_axioms(fn, fam))
        assert all(status != "fail" for _, status in up), (fn, up)


def test_shift_law_fails_only_on_certified_different_values():
    # counting gives the open bracket [8, infinity) on the horizon set and
    # on its shift: they overlap, so nothing is refuted; geometric brackets
    # of a set and its shift by 7 are disjoint, a certified violation
    fam = [HorizonSet.from_members(64, range(8, 16)), FiniteSet((1, 2))]

    def shifts(fn):
        return [r.status for r in check_upper_density_axioms(fn, fam).records
                if r.name.startswith("shift-invariant")]

    assert shifts("counting") == ["pass", "pass"]
    assert shifts("geometric") == ["fail", "fail"]


def test_functional_registry():
    assert get_functional("d-star").kind == "upper-density"
    assert get_functional("geo").name == "geometric"
    assert get_functional("weighted:f=harmonic").name == "weighted:f=harmonic"
    with pytest.raises(KeyError):
        get_functional("nope")
    with pytest.raises(KeyError, match="unknown upper density"):
        dom_membership(EVENS, "geometric")
    with pytest.raises(KeyError):
        get_functional("weighted:f=nope")
