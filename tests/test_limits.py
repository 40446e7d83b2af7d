"""Union limits, tail-cut limits, and the oracle-driven Cauchy pipeline."""

from fractions import Fraction

import pytest

from densitas import limits, metric
from densitas.cli import _FAMILIES
from densitas.config import DEFAULT_CONFIG
from densitas.exceptions import (
    DensitasError,
    NoExactNorm,
    NonSummableIncrements,
    NotCauchy,
    NotMonotone,
    NoValidCut,
    OracleContractViolated,
    UnsupportedBackend,
)
from densitas.limits import (
    Ap0Oracle,
    _resolve_audited,
    cauchy_to_limit,
    lscsm_limit,
    sigma_limit,
    sigma_union_oracle,
)
from densitas.metric import SetSequence, dist, evaluate_measure
from densitas.natset import (
    EMPTY,
    APTerm,
    APUnionSet,
    EVENS,
    OMEGA,
    DyadicBlockSet,
    FillRule,
    FiniteSet,
    HorizonSet,
    PeriodicSet,
    boolean_op,
)


def growing_evens(n):
    return FiniteSet(tuple(range(0, 2 * n, 2)))


EVENS_CHAIN = SetSequence(
    prefix=tuple(growing_evens(n) for n in range(6)), rule=growing_evens,
    monotone=True, limit=EVENS,
    tail_bound=lambda i: Fraction(2, 3) / 4 ** i,
    label="expanding-evens")


def doubling_powers(n):
    return FiniteSet(tuple(2 ** j for j in range(n)))


POWER_CHAIN = SetSequence(
    prefix=tuple(doubling_powers(n) for n in range(22)), rule=doubling_powers,
    monotone=True, tail_bound=lambda i: Fraction(2, 2 ** i),
    label="power-blocks")


# ---------------------------------------------------------------------------
# sigma_limit


def test_sigma_limit_of_a_constant_sequence_is_the_set_itself():
    cert = sigma_limit("geometric", SetSequence.constant(EVENS, length=4))
    assert cert.verdict == "certified"
    assert cert.limit == EVENS
    assert all(s.removed.value == 0 and s.added.value == 0 for s in cert.stages)
    assert cert.increment_sum == 0


def test_sigma_limit_certifies_geometric_tails_on_the_evens_chain():
    cert = sigma_limit("geometric", EVENS_CHAIN)
    assert cert.verdict == "certified" and cert.all_ok
    assert cert.limit == EVENS
    # residuals are the exact geometric tails of the even weights
    for s in cert.stages:
        assert s.removed.value == 0
        assert s.added.value == Fraction(2, 3) / 4 ** s.index
        assert s.added.value <= s.bound


def test_sigma_limit_singleton_growth_recovers_the_full_progression():
    # A_n collects multiples of 3 one at a time; the declared limit is the
    # whole progression and the residuals are its geometric weight tails
    def stage(n):
        return FiniteSet(tuple(3 * j for j in range(n + 1)))

    seq = SetSequence(prefix=tuple(stage(n) for n in range(5)), rule=stage,
                      monotone=True, limit=PeriodicSet(3, (0,)),
                      tail_bound=lambda i: Fraction(4, 7) / 8 ** (i + 1))
    cert = sigma_limit("geometric", seq)
    assert cert.verdict == "certified" and cert.all_ok
    for s in cert.stages:
        direct = evaluate_measure(
            "geometric",
            boolean_op(cert.limit, stage(s.index), "difference"))
        assert s.added.value == direct.value == Fraction(4, 7) / 8 ** (s.index + 1)


def test_sigma_limit_reports_when_the_upper_density_breaks_the_tail_bound():
    # d* is not sigma-subadditive: null increments accumulate density 1/2,
    # so the certificate must refuse to certify
    seq = SetSequence(prefix=EVENS_CHAIN.prefix, rule=growing_evens,
                      monotone=True, limit=EVENS,
                      tail_bound=lambda i: Fraction(0))
    cert = sigma_limit("d-star", seq)
    assert cert.verdict == "observed-only"
    assert not cert.all_ok
    assert cert.stages[0].added.value == Fraction(1, 2)


def test_sigma_limit_requires_the_monotone_flag():
    with pytest.raises(NotMonotone):
        sigma_limit("geometric", SetSequence(prefix=(EMPTY, EVENS)))


@pytest.mark.parametrize("nu", ["d-star", "counting", "geometric"])
@pytest.mark.parametrize("member", [5, 100000])
def test_a_stage_outside_the_declared_limit_is_refused(nu, member):
    # containment in the limit candidate is decided exactly, also for an
    # element past 2^16
    seq = SetSequence(prefix=(FiniteSet((member,)),), monotone=True, limit=EMPTY)
    with pytest.raises(NotMonotone, match="stage 0 is not contained"):
        sigma_limit(nu, seq)


def test_sigma_limit_rejects_infinite_increments():
    seq = SetSequence(prefix=(EMPTY, EVENS), monotone=True)
    with pytest.raises(NonSummableIncrements):
        sigma_limit("counting", seq)


def test_sigma_limit_rejects_inexact_increments():
    h1 = HorizonSet.from_members(64, range(0, 10))
    h2 = HorizonSet.from_members(64, range(0, 20))
    seq = SetSequence(prefix=(h1, h2), monotone=True)
    with pytest.raises(NoExactNorm):
        sigma_limit("d-star", seq)


# ---------------------------------------------------------------------------
# lscsm_limit


def test_tail_cut_limit_on_the_power_chain_is_fully_certified():
    cert = lscsm_limit("phi-prefix", POWER_CHAIN)
    assert cert.verdict == "certified" and cert.all_ok
    # every trimmed increment is empty here, so the limit is the empty set
    assert cert.limit.is_empty_surely()
    cuts = [s.cut for s in cert.stages]
    assert all(a < b for a, b in zip(cuts, cuts[1:]))
    for s in cert.stages:
        assert s.removed.value == 0
        assert s.symdiff.value == 0
        # 4 * sum_{j >= k} 2^-j = 2^{3-k}
        assert s.bound == Fraction(8, 2 ** s.index)


def test_tail_cut_limit_constant_sequence():
    cert = lscsm_limit("psi-dyadic", SetSequence.constant(EVENS, length=3))
    assert cert.verdict == "certified"
    assert dist("norm:psi-dyadic", cert.limit, EVENS).value == 0
    assert all(s.symdiff.value == 0 for s in cert.stages)


def test_tail_cut_limit_periodic_growth_observed_only_without_a_rule():
    chain = [PeriodicSet(16, (0,)), PeriodicSet(8, (0,)), PeriodicSet(4, (0,))]
    cert = lscsm_limit("phi-prefix", SetSequence(prefix=tuple(chain),
                                                 monotone=True))
    assert cert.verdict == "observed-only"
    assert cert.all_ok  # observed stages still respect the 4x tail bounds
    assert cert.increment_sum == Fraction(1, 16) + Fraction(1, 8)
    # the constructed limit keeps the final density
    assert evaluate_measure("d-star", cert.limit).value == Fraction(1, 4)


def test_tail_cut_limit_raises_when_no_cut_tames_a_null_increment():
    thin = DyadicBlockSet(FillRule.vanishing(
        lambda n: Fraction(1, n), "1/n", threshold=1,
        slice_growth="unbounded"))
    seq = SetSequence(prefix=(EMPTY, thin), monotone=True)
    with pytest.raises(NoValidCut):
        lscsm_limit("phi-prefix", seq,
                    config=DEFAULT_CONFIG.with_overrides(cut_search_max=1 << 12))


def test_tail_cut_limit_requires_monotone_and_exact_norms():
    with pytest.raises(NotMonotone):
        lscsm_limit("phi-prefix", SetSequence(prefix=(EVENS, EMPTY)))
    h1 = HorizonSet.from_members(32, range(0, 8))
    h2 = HorizonSet.from_members(32, range(0, 16))
    with pytest.raises(NoExactNorm):
        lscsm_limit("phi-prefix", SetSequence(prefix=(h1, h2), monotone=True))


def test_tail_cut_limit_idempotent_on_its_own_output():
    cert = lscsm_limit("phi-prefix", POWER_CHAIN, depth=6)
    again = lscsm_limit("phi-prefix",
                        SetSequence.constant(cert.limit, length=3))
    assert again.verdict == "certified"
    assert all(s.symdiff.value == 0 for s in again.stages)


# ---------------------------------------------------------------------------
# cauchy_to_limit


_MEASURES = ("d-star", "bd-star", "buck", "weighted:f=harmonic", "weighted:f=constant",
             "counting", "geometric", "phi-prefix", "norm:phi-prefix", "norm:psi-dyadic",
             "norm:phi-alpha:a=2", "norm:harmonic")


def _limit_or_raise(run):
    """The limit run() returns, or the type and message of what it raised."""
    try:
        return run()
    except DensitasError as e:
        return type(e), str(e)


def test_the_union_oracle_answers_like_sigma_limit():
    # the resolver runs only what can raise in sigma_limit, in its order: it
    # must return sigma_limit's limit, as the same object form, and raise
    # what sigma_limit raises, message and all, on every family and measure
    seqs = []
    for rule, tail_bound, limit, _ in _FAMILIES.values():
        for depth in (1, 2, 5):
            prefix = tuple(rule(n) for n in range(depth))
            seqs += [SetSequence(prefix=prefix, rule=rule, monotone=True,
                                 tail_bound=tail_bound, limit=limit),
                     SetSequence(prefix=prefix, monotone=True)]
    seqs += [SetSequence(prefix=(EMPTY, EVENS, OMEGA), monotone=True),
             SetSequence(prefix=(HorizonSet.from_members(64, range(0, 10)),
                                 HorizonSet.from_members(64, range(0, 20))), monotone=True)]
    raised = set()
    for nu in _MEASURES:
        resolve = sigma_union_oracle(nu).resolver
        for seq in seqs:
            want = _limit_or_raise(lambda: sigma_limit(nu, seq).limit)
            got = _limit_or_raise(lambda: resolve(seq))
            assert got == want and repr(got) == repr(want), (nu, seq)
            if isinstance(want, tuple):
                raised.add(want[0])
    assert raised == {NotMonotone, NonSummableIncrements, NoExactNorm, UnsupportedBackend}


def test_pipeline_on_a_constant_sequence_returns_an_equivalent_set():
    cert = cauchy_to_limit("d-star", SetSequence.constant(EVENS, length=4),
                           sigma_union_oracle("d-star"))
    assert cert.verdict == "certified"
    assert dist("d-star", cert.limit, EVENS).value == 0
    for s in cert.stages:
        assert s.symdiff.value == 0 and s.ok


def test_pipeline_matches_sigma_limit_on_a_monotone_chain():
    cert = cauchy_to_limit("geometric", EVENS_CHAIN,
                           sigma_union_oracle("geometric"))
    sig = sigma_limit("geometric", EVENS_CHAIN)
    assert cert.verdict == "certified"
    # both pipelines land on nu-equivalent limits
    assert dist("geometric", cert.limit, sig.limit).value == 0
    for s in cert.stages:
        assert s.ok and s.symdiff.value < s.bound


def test_pipeline_tolerates_null_finite_perturbations():
    # alternating A, A delta F_n with d*-null finite noise
    def stage(n):
        if n % 2 == 0:
            return EVENS
        return boolean_op(EVENS, FiniteSet((n, n + 2)), "symdiff")

    seq = SetSequence(prefix=tuple(stage(n) for n in range(6)), rule=stage,
                      tail_bound=lambda i: Fraction(0))
    cert = cauchy_to_limit("d-star", seq, sigma_union_oracle("d-star"))
    assert cert.verdict == "certified"
    assert dist("d-star", cert.limit, EVENS).value == 0


def test_pipeline_rejects_uncertified_sequences():
    bare = SetSequence(prefix=(EVENS, EVENS, EVENS))
    with pytest.raises(NotCauchy):
        cauchy_to_limit("d-star", bare, sigma_union_oracle("d-star"))


def test_pipeline_catches_a_cheating_oracle():
    cheat = Ap0Oracle("empty-always", lambda seq: EMPTY)
    with pytest.raises(OracleContractViolated):
        cauchy_to_limit("d-star", SetSequence.constant(EVENS, length=4),
                        cheat)


def test_pipeline_audits_stages_that_leave_the_limit_on_both_sides():
    # A_n = the odds below n and the evens from n on: past n every stage
    # agrees with the limit, below it each misses part of it and holds more;
    # the geometric measure adds over the two disjoint differences
    def rule(n):
        return APUnionSet((APTerm(2, 0, (n + 1) // 2),), tuple(range(1, n, 2)))

    seq = SetSequence(prefix=tuple(rule(n) for n in range(6)), rule=rule,
                      tail_bound=lambda i: Fraction(1, 2 ** i))
    cert = cauchy_to_limit("geometric", seq, sigma_union_oracle("geometric"))
    assert cert.verdict == "certified"
    assert any(s.removed.value and s.added.value for s in cert.stages)
    for s in cert.stages:
        assert s.symdiff.value == s.removed.value + s.added.value


def test_the_audit_hands_over_a_run_of_equal_stages_once():
    # the running unions of [{1}, {1}, {1} ∪ evens, {1} ∪ evens] are two runs
    # of one object each; the oracle sees each once, and the stage that
    # breaks the contract is named by the index its run starts at
    one = FiniteSet((1,))
    both = boolean_op(one, EVENS, "union")
    seen = []

    def resolve(seq):
        seen.append(seq.prefix)
        return one

    with pytest.raises(OracleContractViolated,
                       match=r"left measure 1/2 of stage 2 outside its answer$"):
        _resolve_audited("d-star", Ap0Oracle("fixed", resolve),
                         [one, FiniteSet((1,)), both, both], "stage {}",
                         "its answer", DEFAULT_CONFIG)
    assert [len(prefix) for prefix in seen] == [2]
    assert seen[0][0] is one and seen[0][1] == both


def test_pipeline_on_a_nested_chain_matches_the_general_loop():
    # on a verified nested chain each level's nested intersection is its
    # first stage; without the monotone flag the pipeline folds them all
    for rule, tail_bound, limit, _ in _FAMILIES.values():
        for nu in ("geometric", "counting", "d-star", "bd-star", "norm:phi-prefix"):
            for depth in (2, 5, 12):
                kw = dict(prefix=tuple(rule(n) for n in range(depth)), rule=rule,
                          tail_bound=tail_bound, limit=limit)
                nested = _limit_or_raise(lambda: cauchy_to_limit(
                    nu, SetSequence(monotone=True, **kw), sigma_union_oracle(nu)))
                general = _limit_or_raise(lambda: cauchy_to_limit(
                    nu, SetSequence(**kw), sigma_union_oracle(nu)))
                assert nested == general and repr(nested) == repr(general), (nu, depth)


def test_pipeline_reads_two_distances_per_stage(monkeypatch):
    # one per stage for the Cauchy profile, one per stage for its audit of
    # C_i against the limit; the pairwise table took 78 at depth 12
    calls = []
    for module in (metric, limits):
        body = module.dist
        monkeypatch.setattr(module, "dist",
                            lambda *a, body=body: calls.append(a) or body(*a))
    rule, tail_bound, limit, _ = _FAMILIES["multiples"]
    seq = SetSequence(prefix=tuple(rule(n) for n in range(12)), rule=rule,
                      monotone=True, tail_bound=tail_bound, limit=limit)
    cert = cauchy_to_limit("geometric", seq, sigma_union_oracle("geometric"))
    assert cert.verdict == "certified"
    assert len(calls) <= 2 * 12


def test_pipeline_limit_feeds_back_with_zero_residuals():
    cert = cauchy_to_limit("d-star", SetSequence.constant(EVENS, length=3),
                           sigma_union_oracle("d-star"))
    back = cauchy_to_limit("d-star",
                           SetSequence.constant(cert.limit, length=3),
                           sigma_union_oracle("d-star"))
    assert all(s.symdiff.value == 0 for s in back.stages)
