"""The incomplete-metric witness family: parameters, construction,
invariants, and the two certificates."""

import dataclasses
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from densitas.exceptions import (
    InsufficientPrefix,
    InvariantsFailed,
    KappaMismatch,
    ScheduleTooShort,
)
from densitas import metric, natset, witness
from densitas.cli import main
from densitas.metric import cauchy_profile, evaluate_measure
from densitas.natset import APTerm, APUnionSet, boolean_op
from densitas.reports import to_payload
from densitas.witness import (
    WitnessParams,
    banach_gap_certificate,
    build_witness,
    check_witness_invariants,
    derive_params,
    divergence_certificate,
    increment_tail_bound,
    stage_density,
    validate_params,
    witness_sequence,
)

from conftest import assert_column_matches_table

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def params():
    return derive_params(HALF)


@pytest.fixture(scope="module")
def family(params):
    return build_witness(params, 4)


# ---------------------------------------------------------------------------
# parameters


def test_derived_params_at_one_half(params):
    assert params.kappa == HALF
    assert params.scale == 75
    assert params.cover == 2
    assert params.schedule == (8, 9, 10, 11, 12, 13)


def test_scale_is_minimal():
    smaller = WitnessParams(HALF, 74, 2, (8, 9, 10, 11, 12, 13))
    report = validate_params(smaller)
    assert not report.passed
    assert any(r.name == "log-squared-condition" for r in report.failures)


def test_schedule_start_is_minimal():
    # 7! = 5040 does not clear (N+1)^2 = 5776
    low = WitnessParams(HALF, 75, 2, (7, 9, 10, 11, 12, 13))
    report = validate_params(low)
    assert not report.passed
    assert any(r.name == "factorial-threshold[0]"
               for r in report.failures)


def test_derived_params_validate(params):
    assert validate_params(params).passed


def test_cover_is_ceiling_of_inverse():
    assert derive_params(Fraction(1, 3)).cover == 3
    assert derive_params(Fraction(2, 3)).cover == 2
    assert derive_params(Fraction(2, 3), levels=4).schedule == \
        derive_params(Fraction(2, 3), levels=6).schedule[:4]


def test_other_ratios_validate():
    for kappa in (Fraction(1, 3), Fraction(2, 3), Fraction(1, 5)):
        assert validate_params(derive_params(kappa, levels=4)).passed


# (scale, schedule at 8 levels, least a with a! past every threshold of
# level n for n = 0..11), recorded with the mpmath interval kernel the
# integer one replaced
_KAPPA_GRID = {
    Fraction(1, 2): (75, (8, 9, 10, 11, 12, 13, 14, 15),
                     (8, 8, 8, 8, 9, 9, 10, 11, 12, 13, 14, 14)),
    Fraction(1, 3): (42, (7, 8, 9, 10, 11, 12, 13, 14),
                     (7, 7, 7, 8, 9, 10, 10, 11, 12, 13, 14, 14)),
    Fraction(2, 3): (152, (8, 9, 10, 11, 12, 13, 14, 15),
                     (8, 8, 8, 8, 9, 9, 10, 11, 12, 13, 14, 14)),
    Fraction(1, 4): (33, (7, 8, 9, 10, 11, 12, 13, 14),
                     (7, 7, 7, 8, 9, 10, 11, 11, 12, 13, 14, 15)),
    Fraction(1, 5): (28, (7, 8, 9, 10, 11, 12, 13, 14),
                     (7, 7, 7, 8, 9, 10, 11, 12, 12, 13, 14, 15)),
    Fraction(3, 4): (241, (9, 10, 11, 12, 13, 14, 15, 16),
                     (9, 9, 9, 9, 9, 9, 10, 11, 12, 13, 14, 14)),
}
# least N > e^2 with log^2(N)/N < (1-kappa)/2, recorded the same way
_MINIMAL_SCALES = {
    "2/5": 53, "3/5": 111, "4/5": 340, "1/6": 25, "5/6": 447, "1/7": 23,
    "2/7": 36, "3/7": 58, "4/7": 99, "5/7": 195, "6/7": 561, "1/8": 22,
    "3/8": 48, "5/8": 124, "7/8": 681, "1/9": 21, "2/9": 30, "4/9": 61,
    "5/9": 93, "7/9": 289, "8/9": 807, "1/10": 20, "3/10": 38, "7/10": 180,
    "9/10": 937, "1/12": 19, "5/12": 56, "7/12": 104, "11/12": 1210,
    "1/16": 18, "3/16": 27, "5/16": 40, "7/16": 60, "9/16": 95,
    "11/16": 169, "13/16": 375, "15/16": 1798, "1/20": 17, "3/20": 24,
    "7/20": 45, "9/20": 62, "11/20": 90, "13/20": 140, "17/20": 523,
    "19/20": 2432,
}


@pytest.mark.parametrize("kappa", list(_KAPPA_GRID), ids=str)
def test_params_on_the_kappa_grid_are_unchanged(kappa):
    scale, schedule, least = _KAPPA_GRID[kappa]
    p = derive_params(kappa, levels=8)
    assert (p.scale, p.cover, p.schedule) == (
        scale, -(-kappa.denominator // kappa.numerator), schedule)
    assert validate_params(p).passed
    failures = lambda q: [r.name for r in validate_params(q).failures]
    assert failures(replace(p, scale=scale - 1)) == ["log-squared-condition"]
    assert failures(replace(p, scale=scale + 1)) == []
    assert failures(replace(p, schedule=(schedule[0] - 1,) + schedule[1:])) \
        == ["factorial-threshold[0]"]
    for n, a in enumerate(least):
        assert witness._clears_thresholds(a, n, kappa, p.cover, scale)
        assert not witness._clears_thresholds(a - 1, n, kappa, p.cover, scale)


def test_minimal_scales_are_unchanged():
    assert {k: witness._minimal_scale(Fraction(k)) for k in _MINIMAL_SCALES} \
        == _MINIMAL_SCALES


def test_ratio_must_be_strictly_inside_unit_interval():
    with pytest.raises(ValueError):
        derive_params(Fraction(0))
    with pytest.raises(ValueError):
        derive_params(Fraction(3, 2))


def test_wrong_cover_flagged():
    p = WitnessParams(HALF, 75, 3, (8, 9, 10, 11, 12, 13))
    report = validate_params(p)
    assert any(r.name == "cover-is-inverse-ceiling"
               for r in report.failures)


# ---------------------------------------------------------------------------
# construction


def test_residues_take_closed_form(family):
    for lev in family.levels[1:]:
        i = lev.index
        assert lev.residues == tuple(math.comb(i, 2) + j for j in range(i))
        assert lev.span == i


def test_level_blocks_start_past_their_modulus(family):
    for lev in family.levels[1:]:
        assert all(t.start == 1 for t in lev.block.terms)
        assert all(t.modulus == math.factorial(lev.entry)
                   for t in lev.block.terms)
        assert not lev.block.member(lev.residues[0])
        assert lev.block.member(lev.modulus + lev.residues[0])


def test_excluded_probe_shows_the_greedy_skips(family):
    # every natural below the chosen residues lies in an earlier class
    lv3 = family.levels[3]
    assert lv3.excluded_probe == (0, 1, 2)
    lv5 = family.levels[5]
    assert lv5.excluded_probe == (0, 1, 2, 3, 4, 5, 6, 7)


def test_stages_accumulate_blocks(family):
    assert len(family.stages) == 5
    assert [len(s.terms) for s in family.stages] == [1, 3, 6, 10, 15]
    # A_0 is the first nonempty block
    assert family.stages[0].terms == family.levels[1].block.terms


def test_stage_density_matches_functionals(family):
    a4 = family.stages[4]
    expected = stage_density(family, 4)
    assert expected == Fraction(7039, 2075673600)
    for nu in ("d-star", "bd-star", "buck"):
        v = evaluate_measure(nu, a4)
        assert v.status == "exact" and v.value == expected


def test_depth_needs_schedule_room(params):
    with pytest.raises(ScheduleTooShort):
        build_witness(params, 5)
    assert len(build_witness(params, 3).levels) == 5


def test_invalid_params_refuse_to_build():
    bad = WitnessParams(HALF, 74, 2, (8, 9, 10, 11, 12, 13))
    with pytest.raises(InvariantsFailed):
        build_witness(bad, 2)


def test_demo_mode_builds_and_taints_certificates():
    small = WitnessParams(HALF, 10, 2, (3, 4, 5, 6))
    w = build_witness(small, 2, demo=True)
    assert w.demo
    assert w.levels[1].residues == (0,)
    assert w.levels[2].residues == (1, 2)
    assert w.levels[3].residues == (3, 4, 5)
    div = divergence_certificate(w, horizon=10 ** 4)
    assert div.demo
    gap = banach_gap_certificate(w, horizon=10 ** 4)
    assert gap.demo


def test_demo_blocks_against_brute_membership():
    small = WitnessParams(HALF, 10, 2, (3, 4, 5, 6))
    w = build_witness(small, 2, demo=True)
    for lev in w.levels[1:]:
        a = lev.modulus
        brute = {a * q + h for q in (1, 2) for h in lev.residues}
        assert set(lev.block.elements_in(0, 3 * a)) == brute
        for n in range(3 * a):
            assert lev.block.member(n) == (n in brute)


# ---------------------------------------------------------------------------
# invariants


def test_invariants_pass_exactly(family):
    report = check_witness_invariants(family, horizon=10 ** 6)
    assert report.passed
    assert len(report.records) == 29
    assert all(r.status == "pass" for r in report.records)


def test_stage_elements_below_horizon(family):
    a4 = family.stages[4]
    assert list(a4.elements_in(0, 10 ** 6)) == [362880, 725760]


def test_tampered_residues_fail_disjointness(family):
    lv = list(family.levels)
    bad_h = (0, 5)
    bad_block = APUnionSet(tuple(APTerm(lv[2].modulus, h, 1) for h in bad_h))
    lv[2] = replace(lv[2], residues=bad_h, block=bad_block)
    tampered = replace(family, levels=tuple(lv))
    report = check_witness_invariants(tampered, horizon=10 ** 4)
    assert not report.passed
    assert any(r.name == "disjoint[2]" for r in report.failures)
    with pytest.raises(InvariantsFailed):
        divergence_certificate(tampered, horizon=10 ** 4)


@pytest.mark.parametrize("horizon", [0, -5])
def test_a_horizon_below_one_is_refused(params, horizon):
    # a horizon below 1 checks no breakpoint: it certifies nothing
    w = build_witness(params, 1)
    for check in (check_witness_invariants, divergence_certificate,
                  banach_gap_certificate):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            check(w, horizon=horizon)
    assert vars(w)["_invariants"] == {}
    assert check_witness_invariants(w, horizon=1).passed


def _count_invariant_reports(monkeypatch) -> Counter:
    calls: Counter = Counter()
    body = witness._invariant_report

    def counted(w, horizon, probes):
        calls[horizon, probes] += 1
        return body(w, horizon, probes)

    monkeypatch.setattr(witness, "_invariant_report", counted)
    return calls


def test_verify_checks_the_invariants_once(tmp_path, monkeypatch, capsys):
    # the CLI, the divergence and the gap certificate share one report
    out = tmp_path / "family.json"
    assert main(["witness", "build", "--kappa", "1/2", "--depth", "2",
                 "--format", "json", "--out", str(out)]) == 0
    calls = _count_invariant_reports(monkeypatch)
    assert main(["witness", "verify", str(out), "--horizon", "100000",
                 "--format", "json"]) == 0
    assert "gap" in capsys.readouterr().out
    assert calls == {(100000, 64): 1}


def test_invariant_memo_is_per_family_and_key(params, monkeypatch):
    w = build_witness(params, 1)
    calls = _count_invariant_reports(monkeypatch)
    first = check_witness_invariants(w, horizon=10 ** 4)
    divergence_certificate(w, horizon=10 ** 4)
    banach_gap_certificate(w, horizon=10 ** 4)
    assert check_witness_invariants(w, horizon=10 ** 4) is first
    check_witness_invariants(w, horizon=10 ** 4, probes=8)
    assert calls == {(10 ** 4, 64): 1, (10 ** 4, 8): 1}
    # `replace` builds a new family, so a tampered copy is judged afresh
    fresh = replace(w)
    assert check_witness_invariants(fresh, horizon=10 ** 4) == first
    assert calls == {(10 ** 4, 64): 2, (10 ** 4, 8): 1}
    assert "_invariants" in vars(w)
    assert "_invariants" not in {f.name for f in dataclasses.fields(w)}
    assert "_invariants" not in to_payload(w) and "_invariants" not in repr(w)


def test_oversized_span_fails_ratio_check(family):
    lv = list(family.levels)
    wide = (0, 100)
    block = APUnionSet(tuple(APTerm(lv[2].modulus, h, 1) for h in wide))
    lv[2] = replace(lv[2], residues=wide, span=101, block=block)
    report = check_witness_invariants(replace(family, levels=tuple(lv)),
                                      horizon=10 ** 4)
    assert any(r.name == "span-ratio[2]" and r.status == "fail"
               for r in report.records)


def test_prefix_counts_agree_with_count_range(family):
    # below min(horizon, top) a checkpoint is counted by bisecting the
    # members listed there; it must be the count the set itself gives,
    # including where the limit falls between members and at a probe on it
    top = family.levels[-1].modulus
    for a in family.stages:
        for horizon in (2, 1000, 362881, 725760, 10 ** 6, top + 5):
            limit = min(horizon, top)
            counts = witness._prefix_counts(
                a, limit, witness._log_probes(max(2, limit), top, 64))
            assert [m for m, _ in counts] == sorted({m for m, _ in counts})
            assert all(c == a.count_range(0, m) for m, c in counts)


def test_probe_points_are_listed_once_per_report(params, monkeypatch):
    # every stage of an invariant report, and the gap certificate's union,
    # reads one list of geometric probes
    calls = []
    log_probes = witness._log_probes

    def counted(*args):
        calls.append(args)
        return log_probes(*args)

    monkeypatch.setattr(witness, "_log_probes", counted)
    fresh = build_witness(params, 4)
    check_witness_invariants(fresh, horizon=10 ** 4)
    assert len(calls) == 1
    banach_gap_certificate(fresh, horizon=10 ** 4)
    assert len(calls) == 2


def test_dense_stage_fails_the_prefix_bound_at_its_first_checkpoint(family):
    # a stage of density 1/2 breaks the bound; the record names the first
    # checkpoint where |A ∩ m|/m reaches it, with that ratio
    dense = APUnionSet((APTerm(2, 1),))
    tampered = replace(family, stages=(dense,) + family.stages[1:])
    report = check_witness_invariants(tampered, horizon=10 ** 4)
    record = next(r for r in report.records if r.name == "prefix-bound[0]")
    assert record.status == "fail"
    m, ratio = record.witness
    bound = stage_density(family, 0)
    assert Fraction(ratio) == Fraction(dense.count_range(0, m), m) >= bound
    top = family.levels[-1].modulus
    probes = witness._log_probes(10 ** 4, top, 64)
    earlier = [k for k, _ in witness._prefix_counts(dense, 10 ** 4, probes) if k < m]
    assert earlier and all(Fraction(dense.count_range(0, k), k) < bound for k in earlier)


# ---------------------------------------------------------------------------
# certificates


def test_divergence_certificate_contents(family):
    cert = divergence_certificate(family)
    assert cert.verdict == "Cauchy-with-kappa-obstruction"
    assert not cert.demo
    assert cert.increments == tuple(
        (n, Fraction(n, math.factorial(n + 8))) for n in range(1, 6))
    assert cert.sum_target == Fraction(1, 4)
    assert all(s < Fraction(1, 4) for s in cert.partial_sums)
    assert list(cert.partial_sums) == sorted(cert.partial_sums)
    for win in cert.windows:
        assert win.length == win.level
        assert win.fill == win.level
        assert win.ratio >= HALF


def test_gap_certificate_upper_and_lower(family):
    cert = banach_gap_certificate(family, horizon=10 ** 6)
    assert cert.verdict == "no-banach-density-over-certified-range"
    assert cert.prefix_bound == sum(
        (Fraction(n, math.factorial(n + 8)) for n in range(1, 5)), Fraction(0))
    assert cert.prefix_bound < Fraction(1, 4)
    points = [m for m, _, _ in cert.prefix_checks]
    assert 362881 in points and 725761 in points
    assert max(points) == math.factorial(13)
    assert all(ratio <= Fraction(1, 4) for _, _, ratio in cert.prefix_checks)
    assert all(w.ratio >= HALF for w in cert.windows)
    assert {w.level for w in cert.windows} == {1, 2, 3, 4}


def test_gap_certificate_reads_the_stage_below_the_depth(params):
    # A_{depth-1} is the union of the blocks B_1..B_depth: its checkpoints
    # are the stage's own, and each count is the number of q >= 1 with
    # q a_n! + h below m, summed over the residues h of levels 1..depth
    for depth, horizon in ((1, 10 ** 4), (3, 10 ** 6), (4, 10 ** 4)):
        w = build_witness(params, depth)
        cert = banach_gap_certificate(w, horizon=horizon)
        top = w.levels[-1].modulus
        limit = min(horizon, top)
        stage = w.stages[depth - 1]
        assert [(m, c) for m, c, _ in cert.prefix_checks] == witness._prefix_counts(
            stage, limit, witness._log_probes(max(2, limit), top, 64))
        for m, c, ratio in cert.prefix_checks:
            assert c == sum(max(0, (m - h - 1) // lv.modulus)
                            for lv in w.levels[1:depth + 1] for h in lv.residues)
            assert ratio == Fraction(c, m)
        assert cert.prefix_bound == stage_density(w, depth - 1)


def test_gap_certificate_requires_one_half():
    p = derive_params(Fraction(1, 3), levels=4)
    w = build_witness(p, 2)
    with pytest.raises(KappaMismatch):
        banach_gap_certificate(w, horizon=10 ** 4)


def test_gap_certificate_needs_one_level():
    w = build_witness(derive_params(HALF, levels=6), 0)
    with pytest.raises(InsufficientPrefix):
        banach_gap_certificate(w, horizon=10 ** 4)


# ---------------------------------------------------------------------------
# the Cauchy sequence


def test_tail_bound_dominates_schedule_tail(params):
    exact_tail = sum((Fraction(m, math.factorial(params.schedule[m]))
                      for m in range(2, 6)), Fraction(0))
    bound = increment_tail_bound(params, 2)
    assert exact_tail < bound < exact_tail + Fraction(1, 10 ** 9)
    bounds = [increment_tail_bound(params, s) for s in range(2, 10)]
    assert all(b > 0 for b in bounds)
    assert bounds == sorted(bounds, reverse=True)


def test_witness_sequence_profile_is_certified(family):
    seq = witness_sequence(family)
    prof = cauchy_profile("bd-star", seq, depth=5)
    assert prof.certified
    assert prof.table[0][4].value == Fraction(1319, 2075673600)
    assert prof.table[0][1].value == Fraction(2, math.factorial(10))
    assert prof.observed_max == Fraction(1319, 2075673600)
    # the certified modulus collapses to the first index: the whole tail
    # bound already sits far below 2^-15
    assert dict(prof.modulus)[15] == 0
    assert increment_tail_bound(family.params, 2) < Fraction(1, 2 ** 15)


@pytest.mark.parametrize("kappa", [HALF, Fraction(1, 3), Fraction(2, 3)])
def test_column_profile_matches_the_table_on_witness_stages(kappa):
    # `witness verify` at depth d profiles the d + 1 stages A_0..A_d
    seq = witness_sequence(build_witness(derive_params(kappa, levels=22), 20))
    for depth in range(1, 22):
        assert assert_column_matches_table("bd-star", seq, depth)


def test_verify_reads_one_distance_per_stage(tmp_path, monkeypatch, capsys):
    # the nested stages need their distances to the last stage only: 13 at
    # depth 12, where the pairwise table took 91
    out = tmp_path / "family.json"
    assert main(["witness", "build", "--kappa", "1/2", "--depth", "12",
                 "--format", "json", "--out", str(out)]) == 0
    calls = []
    body = metric.dist
    monkeypatch.setattr(metric, "dist", lambda *a: calls.append(a) or body(*a))
    assert main(["witness", "verify", str(out), "--format", "json"]) == 0
    assert '"cauchy_certified": true' in capsys.readouterr().out
    assert len(calls) == 13 <= 2 * 12


def test_a_difference_inherits_proven_disjointness(tmp_path, monkeypatch, capsys):
    # the Cauchy column's differences keep a subset of a stage's terms, so
    # they take the stage's proof: 26 disjointness tests at depth 12, 38
    # when every difference proved its own
    out = tmp_path / "family.json"
    assert main(["witness", "build", "--kappa", "1/2", "--depth", "12",
                 "--format", "json", "--out", str(out)]) == 0
    calls = []
    body = natset._pairwise_disjoint
    monkeypatch.setattr(natset, "_pairwise_disjoint",
                        lambda terms: calls.append(terms) or body(terms))
    assert main(["witness", "verify", str(out), "--format", "json"]) == 0
    assert '"cauchy_certified": true' in capsys.readouterr().out
    assert len(calls) == 26


def test_a_difference_of_disjoint_terms_is_marked_disjoint():
    a = APUnionSet((APTerm(4, 0), APTerm(4, 1), APTerm(8, 2)))
    assert a._disjoint
    for b in (APUnionSet((APTerm(4, 1),)), APUnionSet((APTerm(8, 6),))):
        got = boolean_op(a, b, "difference")
        assert got._disjoint_cache is True
        assert natset._pairwise_disjoint(got.terms)
    # a minuend not yet proven disjoint passes nothing on
    fresh = APUnionSet((APTerm(4, 0), APTerm(4, 1)))
    assert boolean_op(fresh, APUnionSet((APTerm(8, 6),)), "difference")._disjoint_cache is None


def test_witness_sequence_rule_extends_then_runs_out(family):
    seq = witness_sequence(family)
    assert seq.item(4) == family.stages[4]
    with pytest.raises(InsufficientPrefix):
        seq.item(5)
