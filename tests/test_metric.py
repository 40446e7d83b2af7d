"""Pseudometric evaluation, axiom checks, Cauchy profiles, and the
metric-equivalence probes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from densitas.cli import _FAMILIES
from densitas.exceptions import (
    InsufficientPrefix,
    NotMonotone,
    SampleNotExact,
)
from densitas.exhaust import exhaustive_norm
from densitas.metric import (
    CauchyReport,
    SetSequence,
    cauchy_profile,
    check_pseudometric,
    dist,
    evaluate_measure,
    metric_equivalence_probe,
    topological_coconvergence_probe,
)
from densitas.natset import (
    EMPTY,
    EVENS,
    ODDS,
    OMEGA,
    DyadicBlockSet,
    FillRule,
    FiniteSet,
    HorizonSet,
    PeriodicSet,
    boolean_op,
    parse_set,
)
from densitas import metric
from densitas.values import bracket, exact, observational

from conftest import assert_column_matches_table, brute_members, brute_prefix_ratios

THIRDS = PeriodicSet(3, (0,))

# moduli drawn from divisors of 27720 = 2^3 * 3^2 * 5 * 7 * 11 keep every
# pairwise and triple lcm at 27720 or less, far inside the modulus budget
MODULI_POOL = tuple(m for m in range(2, 361) if 27720 % m == 0)


def random_periodic(rng):
    m = rng.choice(MODULI_POOL)
    residues = tuple(r for r in range(m) if rng.random() < 0.4)
    if not residues:
        residues = (rng.randrange(m),)
    return PeriodicSet(m, residues)


def periodic_triples(seed, count):
    rng = random.Random(seed)
    return [(random_periodic(rng), random_periodic(rng), random_periodic(rng))
            for _ in range(count)]


# ---------------------------------------------------------------------------
# dist


def test_dist_of_a_set_with_itself_is_zero():
    for a in (EVENS, THIRDS, FiniteSet((0, 5, 9)), OMEGA, EMPTY):
        v = dist("d-star", a, a)
        assert v.status == "exact" and v.value == 0


def test_dist_omega_to_evens_is_one_half():
    v = dist("d-star", OMEGA, EVENS)
    assert v.status == "exact" and v.value == Fraction(1, 2)


def test_dist_counting_clamps_at_one():
    v = dist("counting", FiniteSet((0,)), EMPTY)
    assert v.status == "exact" and v.value == 1
    w = dist("counting", EVENS, ODDS)
    assert w.status == "exact" and w.value == 1


def test_dist_resolves_raw_lscsm_totals():
    # psi(evens triangle odds) = psi(omega) = 1
    v = dist("psi-dyadic", EVENS, ODDS)
    assert v.status == "exact" and v.value == 1
    # phi-prefix total of the thirds equals its upper density
    w = dist("phi-prefix", THIRDS, EMPTY)
    assert w.status == "exact" and w.value == Fraction(1, 3)


def test_dist_norm_prefix_resolves_exhaustive_norm():
    v = dist("norm:psi-dyadic", EVENS, EMPTY)
    assert v.status == "exact" and v.value == Fraction(1, 2)


def test_dist_symmetry_and_range_on_mixed_backends():
    sets = [EVENS, THIRDS, FiniteSet((1, 2, 3)), OMEGA,
            PeriodicSet(8, (0, 3, 5), threshold=16, added=(1,), removed=(11,))]
    for a in sets:
        for b in sets:
            u = dist("bd-star", a, b)
            w = dist("bd-star", b, a)
            assert u.status == "exact" and u.value == w.value
            assert 0 <= u.value <= 1


def test_dist_is_invariant_under_a_shared_finite_modification():
    f = FiniteSet((0, 7, 30, 31))
    for nu in ("d-star", "bd-star", "buck"):
        for a, b in ((EVENS, THIRDS), (OMEGA, EVENS), (THIRDS, EMPTY)):
            base = dist(nu, a, b)
            moved = dist(nu, boolean_op(a, f, "symdiff"),
                         boolean_op(b, f, "symdiff"))
            assert base.value == moved.value


def test_dist_clamps_brackets_and_observations():
    # the geometric mass of 20000 lies past the grammar's 2^-14000 bound:
    # a bracket whose open end the clamp keeps
    v = dist("geometric", parse_set("fin{20000}"), EMPTY)
    assert (v.status, v.lower, v.upper) == ("bracket", 0, Fraction(1, 2 ** 14000))
    # horizon evidence stays observational: the prefix ratio at the horizon
    a, b = parse_set("horizon H=16 bits=ff00"), parse_set("horizon H=16 bits=f0f0")
    members = brute_members(a, 16) ^ brute_members(b, 16)
    v = dist("d-star", a, b)
    assert (v.status, v.value) == ("observational", brute_prefix_ratios(members, 16)[-1])


def test_phi_infty_distance_of_a_set_to_itself_is_exact_zero():
    # A △ A is empty, where phi-infty is exactly 0; so the battery checks
    # the triple instead of skipping it
    name = "phi-infty:eps=1/8"
    a = parse_set("per m=3 R={0}")
    assert dist(name, a, a) == exact(0)
    report = check_pseudometric(name, [(a, a, a)])
    assert report.records and {r.status for r in report.records} == {"pass"}


def test_dist_bracket_values_stay_inside_the_unit_interval():
    blocks = DyadicBlockSet(FillRule.cycled((Fraction(1, 3), Fraction(3, 4))))
    v = dist("norm:phi-infty:eps=1/256", blocks, EMPTY)
    assert v.status in ("exact", "bracket")
    lo = v.lower if v.lower is not None else v.value
    hi = v.upper if v.upper is not None else v.value
    assert 0 <= lo <= hi <= 1


def test_one_lipschitz_bound_of_the_upper_density():
    # |d*(A) - d*(B)| <= d*(A delta B), the subadditivity consequence that
    # makes dist well behaved under perturbation
    rng = random.Random(7)
    for _ in range(40):
        a, b = random_periodic(rng), random_periodic(rng)
        da = evaluate_measure("d-star", a).value
        db = evaluate_measure("d-star", b).value
        dd = dist("d-star", a, b).value
        assert abs(da - db) <= dd


@given(st.sets(st.integers(0, 200), max_size=24),
       st.sets(st.integers(0, 200), max_size=24))
@settings(max_examples=40, deadline=None)
def test_additive_measure_difference_bound(xs, ys):
    # |nu(A) - nu(B)| <= nu(A minus B) + nu(B minus A) for the geometric
    # measure, which is finitely additive
    a = FiniteSet(tuple(sorted(xs)))
    b = FiniteSet(tuple(sorted(ys)))
    na = evaluate_measure("geometric", a).value
    nb = evaluate_measure("geometric", b).value
    n_ab = evaluate_measure("geometric", boolean_op(a, b, "difference")).value
    n_ba = evaluate_measure("geometric", boolean_op(b, a, "difference")).value
    assert abs(na - nb) <= n_ab + n_ba


# ---------------------------------------------------------------------------
# pseudometric axioms


@pytest.mark.parametrize("nu", ["d-star", "bd-star", "buck"])
def test_pseudometric_axioms_on_random_periodic_triples(nu):
    report = check_pseudometric(nu, periodic_triples(0x5EED ^ hash(nu) % 97, 40))
    assert report.passed
    assert not any(r.status == "skip" for r in report.records)


def test_pseudometric_axioms_hold_on_mixed_backend_triples():
    triples = [
        (EVENS, ODDS, THIRDS),
        (OMEGA, EMPTY, EVENS),
        (FiniteSet((1, 2)), EVENS, PeriodicSet(6, (1, 4))),
    ]
    assert check_pseudometric("d-star", triples).passed


def test_non_subadditive_fixture_fails_the_triangle_inequality():
    def squared(x, y):
        return exact(dist("d-star", x, y).value ** 2)

    report = check_pseudometric("d-star", [(EVENS, EMPTY, ODDS)],
                                dist_fn=squared)
    assert not report.passed
    names = [r.name for r in report.failures]
    assert any(n.startswith("triangle") for n in names)


def test_inexact_backends_are_skipped_not_judged():
    h = HorizonSet.from_members(64, range(0, 64, 2))
    report = check_pseudometric("d-star", [(h, EVENS, ODDS)])
    assert report.passed  # skips are not failures
    assert any(r.status == "skip" for r in report.records)


# ---------------------------------------------------------------------------
# sequences


def test_sequence_rule_must_agree_with_prefix():
    with pytest.raises(ValueError):
        SetSequence(prefix=(FiniteSet((1,)),), rule=lambda n: FiniteSet((n,)))


def test_sequence_monotone_flag_is_verified():
    grow = SetSequence(prefix=(FiniteSet((2,)), FiniteSet((2, 4)), EVENS),
                       monotone=True)
    assert len(grow) == 3
    with pytest.raises(NotMonotone):
        SetSequence(prefix=(FiniteSet((1, 2)), FiniteSet((2,))), monotone=True)
    with pytest.raises(NotMonotone):
        SetSequence(prefix=(EVENS, ODDS), monotone=True)


@pytest.mark.parametrize("prefix", [
    ("fin{100000}", "fin{}"),
    ("fin{1,100000}", "fin{1}", "fin{1,2}"),
    ("per m=2 R={0}", "per m=2 R={0} t=100002 rm={100000}"),
])
def test_monotone_flag_is_decided_past_any_window(prefix):
    # the element that drops out lies past 2^16; containment is decided
    # exactly, not on a window
    with pytest.raises(NotMonotone, match="element 100000 drops out"):
        SetSequence(prefix=tuple(map(parse_set, prefix)), monotone=True)


def test_sequence_needs_prefix_or_rule():
    with pytest.raises(ValueError):
        SetSequence(prefix=())


def test_sequence_item_uses_rule_beyond_prefix():
    seq = SetSequence(prefix=(FiniteSet(()),),
                      rule=lambda n: FiniteSet(tuple(range(n))))
    assert seq.item(5) == FiniteSet((0, 1, 2, 3, 4))
    bare = SetSequence(prefix=(EVENS,))
    with pytest.raises(InsufficientPrefix):
        bare.item(1)


# ---------------------------------------------------------------------------
# Cauchy profiles


def test_constant_sequence_profiles_as_certified_zero():
    seq = SetSequence.constant(EVENS, length=4)
    rep = cauchy_profile("d-star", seq, 4)
    assert rep.certified
    assert rep.observed_max == 0
    assert all(v.value == 0 for row in rep.table for v in row)
    assert rep.modulus[0] == (0, 0)


def test_finite_perturbations_of_evens_are_null_and_certified():
    # A_n = evens triangle {0..n}: every pairwise difference is finite,
    # hence d*-null, and the zero tail bound is honest
    def stage(n):
        return boolean_op(EVENS, FiniteSet(tuple(range(n + 1))), "symdiff")

    seq = SetSequence(prefix=tuple(stage(n) for n in range(5)),
                      rule=stage, tail_bound=lambda i: Fraction(0),
                      label="evens-mod-finite")
    rep = cauchy_profile("d-star", seq, 5)
    assert rep.certified
    assert rep.observed_max == 0
    assert rep.modulus[0] == (0, 0)


def test_shrinking_periodic_sequence_gets_a_certified_modulus():
    def stage(i):
        return PeriodicSet(2 ** (i + 1), (0,))

    # increments have upper density 2^-(i+2); the geometric tail gives a
    # certified bound of 2^-(i+1)
    seq = SetSequence(prefix=tuple(stage(i) for i in range(6)), rule=stage,
                      tail_bound=lambda i: Fraction(1, 2 ** (i + 1)))
    rep = cauchy_profile("d-star", seq, 6)
    assert rep.certified
    # certified modulus: tail_bound(k) = 2^-(k+1) < 2^-k already at index k
    for k, idx in rep.modulus:
        assert Fraction(1, 2 ** (idx + 1)) < Fraction(1, 2 ** k)
    assert len(rep.modulus) >= 8  # extraction continues past the table depth
    # the worst observed distance is d*(A_0 triangle A_5) = 1/2 - 1/64
    assert rep.observed_max == Fraction(31, 64)


def test_prefix_only_profile_is_observed_not_certified():
    seq = SetSequence(prefix=tuple(PeriodicSet(2 ** (i + 1), (0,))
                                   for i in range(5)))
    rep = cauchy_profile("d-star", seq, 5)
    assert not rep.certified
    assert "observed-only" in rep.note
    assert rep.modulus and rep.modulus[0][0] == 0


def test_dishonest_tail_bound_withholds_the_certificate():
    def stage(i):
        return PeriodicSet(2 ** (i + 1), (0,))

    seq = SetSequence(prefix=tuple(stage(i) for i in range(4)), rule=stage,
                      tail_bound=lambda i: Fraction(1, 1000))
    rep = cauchy_profile("d-star", seq, 4)
    assert not rep.certified
    assert "violated" in rep.note


def test_cauchy_profile_depth_checks():
    seq = SetSequence(prefix=(EVENS, ODDS))
    with pytest.raises(InsufficientPrefix):
        cauchy_profile("d-star", seq, 3)
    with pytest.raises(ValueError):
        cauchy_profile("d-star", seq, 0)


def test_column_profile_matches_the_table_on_limit_families():
    paths = []
    for rule, tail_bound, limit, _ in _FAMILIES.values():
        seq = SetSequence(prefix=tuple(rule(n) for n in range(12)), rule=rule,
                          monotone=True, tail_bound=tail_bound, limit=limit)
        for nu in ("geometric", "counting", "d-star", "bd-star", "norm:phi-prefix"):
            for depth in (1, 2, 5, 12, 16):  # 16 reaches past the prefix
                paths.append(assert_column_matches_table(nu, seq, depth))
    # the geometric measure of a power from 2^14 on is a bracket, which
    # sends that one chain to the table; every other chain takes the column
    assert paths.count(False) == 1


def test_column_profile_reads_one_distance_per_member(monkeypatch):
    rule, tail_bound, limit, _ = _FAMILIES["multiples"]
    seq = SetSequence(prefix=tuple(rule(n) for n in range(8)), rule=rule,
                      monotone=True, tail_bound=tail_bound, limit=limit)
    calls = []
    body = metric.dist
    monkeypatch.setattr(metric, "dist", lambda *a: calls.append(a) or body(*a))
    rep = cauchy_profile("geometric", seq, 8, full_table=False)
    assert rep.certified
    assert [a[1:3] for a in calls] == [(seq.item(i), seq.item(7)) for i in range(8)]


def test_column_profile_falls_back_to_the_table():
    grow = [FiniteSet(tuple(range(n))) for n in range(4)]
    cases = [
        # not marked monotone, though nested
        SetSequence(prefix=tuple(grow)),
        # a rule stage past the prefix that drops a member
        SetSequence(prefix=tuple(grow[:3]), monotone=True,
                    rule=lambda n: grow[n] if n < 3 else FiniteSet((7,))),
        # nested, but no column distance is exact
        SetSequence(prefix=tuple(HorizonSet.from_members(64, range(n))
                                 for n in range(4)), monotone=True),
    ]
    for seq in cases:
        column = cauchy_profile("d-star", seq, 4, full_table=False)
        assert column == cauchy_profile("d-star", seq, 4)
        assert len(column.table) == 4


def test_cauchy_table_is_symmetric_with_zero_diagonal():
    seq = SetSequence(prefix=(EVENS, THIRDS, ODDS, OMEGA))
    rep = cauchy_profile("bd-star", seq, 4)
    for i in range(4):
        assert rep.table[i][i].value == 0
        for j in range(4):
            assert rep.table[i][j].value == rep.table[j][i].value


# ---------------------------------------------------------------------------
# equivalence probes


def test_identity_probe_is_two_sided_with_unit_constants():
    fam = SetSequence(prefix=(EVENS, THIRDS, PeriodicSet(5, (0, 2, 3))))
    rep = metric_equivalence_probe("d-star", "d-star", fam,
                                   claimed_bounds=(1, 1))
    assert rep.verdict == "two-sided-bounded"
    assert rep.max_ratio == rep.min_ratio == 1


def test_the_ratio_range_reads_the_infinite_sentinel_as_no_number():
    # bd* of the 1/n fill is 1 and its d* is 0: the second ratio is 1/0
    fam = SetSequence(prefix=(parse_set("per m=4 R={1}"), parse_set("blocks f(n)=1/n")))
    rep = metric_equivalence_probe("bd-star", "d-star", fam)
    assert rep.ratios == (1, -1)
    assert rep.min_ratio == 1 and rep.max_ratio is None
    head = metric_equivalence_probe("bd-star", "d-star", SetSequence(prefix=fam.prefix[:1]))
    assert head.min_ratio == head.max_ratio == 1


def test_density_and_dyadic_norm_ratios_sit_inside_the_cited_bounds():
    members = [EVENS, THIRDS, ODDS, OMEGA,
               PeriodicSet(7, (0, 1, 2)), PeriodicSet(12, (0, 5)),
               DyadicBlockSet(FillRule.constant(Fraction(1, 2))),
               DyadicBlockSet(FillRule.cycled((Fraction(1, 4), Fraction(1, 2)))),
               FiniteSet((3, 4, 5))]
    fam = SetSequence(prefix=tuple(members), label="mixed")
    rep = metric_equivalence_probe("d-star", "norm:psi-dyadic", fam,
                                   claimed_bounds=(Fraction(1, 2), 16))
    assert rep.verdict == "two-sided-bounded"
    assert rep.bounds == (Fraction(1, 2), Fraction(16))
    # the finite member contributes a 0/0 pair and no ratio
    assert rep.ratios[-1] is None


def test_truncated_tower_norm_outruns_the_dyadic_norm():
    fam = SetSequence(prefix=tuple(
        DyadicBlockSet(FillRule.constant(Fraction(1, 2 ** n)))
        for n in range(1, 8)), label="thinning-blocks")
    rep = metric_equivalence_probe("norm:phi-infty-trunc:a=9",
                                   "norm:psi-dyadic", fam,
                                   targets=(1, 2, 4))
    assert rep.verdict == "ratio-diverges"
    found = dict((int(c), i) for c, i in rep.witnesses)
    assert set(found) == {1, 2, 4}
    # later targets need thinner members
    assert found[1] <= found[2] <= found[4]
    for c, i in rep.witnesses:
        assert rep.ratios[i] > c


def test_probe_reports_inconclusive_when_targets_are_out_of_reach():
    fam = SetSequence(prefix=(EVENS, THIRDS))
    rep = metric_equivalence_probe("d-star", "norm:psi-dyadic", fam,
                                   targets=(100,))
    assert rep.verdict == "inconclusive"
    assert "no sample exceeds" in rep.note


def test_probe_reports_inconclusive_on_violated_bounds():
    fam = SetSequence(prefix=(EVENS, THIRDS))
    rep = metric_equivalence_probe("d-star", "norm:psi-dyadic", fam,
                                   claimed_bounds=(2, 3))
    assert rep.verdict == "inconclusive"
    assert "violates" in rep.note


def test_probe_requires_exact_values():
    fam = SetSequence(prefix=(HorizonSet.from_members(64, range(0, 64, 3)),))
    with pytest.raises(SampleNotExact):
        metric_equivalence_probe("d-star", "norm:psi-dyadic", fam)


# ---------------------------------------------------------------------------
# co-convergence probe


def test_coconvergence_agrees_on_shrinking_and_constant_sequences():
    shrinking = SetSequence(
        prefix=tuple(FiniteSet(tuple(range(n, 8))) for n in range(9)),
        limit=EMPTY, label="shrinking")
    const = SetSequence.constant(EVENS, length=5, label="steady")
    rep = topological_coconvergence_probe("phi-prefix", "psi-dyadic",
                                          [shrinking, const])
    assert rep.all_agree
    assert all(r.tends1 and r.tends2 for r in rep.records)


def test_coconvergence_flags_disagreement_against_the_trivial_norm():
    # the geometric norm vanishes identically, so every sequence converges
    # under it; a sequence stuck away from its declared limit disagrees
    stuck = SetSequence(prefix=(EVENS,) * 4, limit=EMPTY, label="stuck")
    rep = topological_coconvergence_probe("geometric", "phi-prefix", [stuck])
    assert not rep.all_agree
    rec = rep.records[0]
    assert rec.tends1 and not rec.tends2
    assert rec.values2[-1] == Fraction(1, 2)


def test_coconvergence_requires_a_declared_limit():
    with pytest.raises(ValueError):
        topological_coconvergence_probe("phi-prefix", "psi-dyadic",
                                        [SetSequence(prefix=(EVENS,))])


def test_extended_values_keep_a_fraction_and_convert_the_rest():
    q = Fraction(2, 7)
    assert exact(q).value is q
    assert observational(q, "seen").value is q
    assert bracket(q, None).lower is q and bracket(None, q).upper is q
    # anything else goes through Fraction, as before
    for raw, want in ((3, Fraction(3)), (True, Fraction(1)), (False, Fraction(0)),
                      ("5/10", Fraction(1, 2)), ("-2", Fraction(-2))):
        for v in (exact(raw).value, observational(raw).value,
                  bracket(raw, None).lower, bracket(None, raw).upper):
            assert type(v) is Fraction and v == want
