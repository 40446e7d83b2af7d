"""Constructive limit builders for Cauchy sequences of sets.

Three pipelines build a candidate limit and a machine-checkable certificate:
a union limit for increasing sequences under sigma-subadditive measures, a
tail-cut construction for lower semicontinuous submeasures whose increments
have summable exhaustive norms, and a Cauchy-to-limit pipeline whose
existence step is a pluggable oracle. `_resolve_audited`, the one place that
calls an oracle, hands it the increasing chain its caller built as it is
(the Cauchy pipeline folds its unions once; a verified nested chain needs no
fold, and no chain is proved nested twice) and audits
nu(stage minus answer) = 0; the Cauchy stage rule checks that
nu(answer minus stage) sinks. Each stage's sets are built once and sized by
`_stage_sizes`, and one routine, `_judged`, makes every stage record under
its pipeline's own bound and check. `_verdict` says "certified" only for
rule-backed sequences with exact values throughout and a declared tail bound
that caps every stage; everything else is "observed-only".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .config import Config, DEFAULT_CONFIG
from .exceptions import (
    NoExactNorm,
    NonSummableIncrements,
    NotCauchy,
    NotMonotone,
    NoValidCut,
    OracleContractViolated,
)
from .exhaust import exhaustive_norm, get_lscsm, tail_value
from .metric import (
    SetSequence,
    _clamp_unit,
    _verified_nested,
    cauchy_profile,
    dist,
    evaluate_measure,
)
from .natset import (
    FiniteSet,
    NatSet,
    _bisect,
    _running,
    _sides_union,
    boolean_op,
    complement,
    drop_below,
    finite_part,
    least_member,
)
from .values import ExtValue

__all__ = [
    "Ap0Oracle",
    "LimitCertificate",
    "StageRecord",
    "sigma_limit",
    "lscsm_limit",
    "cauchy_to_limit",
    "sigma_union_oracle",
]

@dataclass(frozen=True)
class StageRecord:
    """One audited stage of a limit certificate.

    `removed` is the measure of A_n minus A and `added` that of A minus A_n;
    `symdiff` is recorded when the pipeline checks the symmetric difference
    as a whole. `bound` is the certified cap the stage must respect and
    `cut` the tail cut chosen for the matching increment, when one exists.
    """

    index: int
    removed: ExtValue
    added: ExtValue
    symdiff: Optional[ExtValue] = None
    bound: Optional[Fraction] = None
    cut: Optional[int] = None
    ok: bool = True


@dataclass(frozen=True)
class LimitCertificate:
    limit: NatSet
    method: str
    stages: tuple[StageRecord, ...]
    increment_sum: Optional[Fraction]
    verdict: str  # "certified" | "observed-only"
    note: str = ""

    @property
    def all_ok(self) -> bool:
        return all(s.ok for s in self.stages)


@dataclass(frozen=True)
class Ap0Oracle:
    """Existence step for the Cauchy-to-limit pipeline: `resolver(chain,
    limit)` maps an increasing chain with summable increment measures and
    the declared limit (or None) to a set A with nu(stage minus A) = 0 at
    every stage and nu(A minus stage) sinking. Its caller built the chain
    increasing (a verified nested chain, a fold of unions, or complements
    of running intersections), so it is not proved again. `_resolve_audited`
    re-checks the first half and raises OracleContractViolated on a cheat;
    `cauchy_to_limit` certifies a stage only where the second stays within
    the declared tail bound."""

    name: str
    resolver: Callable[[Sequence[NatSet], Optional[NatSet]], NatSet]


def _exact_or_raise(v: ExtValue, what: str) -> Fraction:
    if v.status == "infinite":
        raise NonSummableIncrements(f"{what} has infinite measure")
    if v.status != "exact":
        raise NoExactNorm(f"{what} does not evaluate exactly ({v.status})")
    return v.value


def _union(parts, config):
    sets = [p for p in parts if not p.is_empty_surely()]
    return _running(sets, "union", config)[-1] if sets else FiniteSet(())


def _observed_depth(seq: SetSequence, depth: Optional[int], who: str = "") -> int:
    """The observed depth; a pipeline named `who` first needs the monotone flag."""
    if who and not seq.monotone:
        raise NotMonotone(f"{who} needs the monotone flag, verified on the prefix")
    if depth is None or (depth > len(seq.prefix) and seq.rule is None):
        depth = len(seq.prefix)
    if depth < 1:
        raise ValueError("need at least one stage")
    return depth


def _increments(items: Sequence[NatSet], what: str,
                size: Callable[[NatSet], ExtValue], config: Config):
    """The increments B_j = A_{j+1} minus A_j of an increasing chain and
    their exact sizes, each size read before the next increment is built."""
    incs, sizes = [], []
    for j in range(len(items) - 1):
        incs.append(boolean_op(items[j + 1], items[j], "difference", config))
        sizes.append(_exact_or_raise(size(incs[-1]), f"{what} {j}"))
    return incs, sizes


def _verdict(limit: NatSet, method: str, stages: list[StageRecord],
             increment_sum: Optional[Fraction], seq: SetSequence) -> LimitCertificate:
    """Certified only when a rule and a declared tail bound back the
    observed data and every stage passed (an inexact stage never does); the
    note says which failed, naming the first failed stage."""
    failed = next((s for s in stages if not s.ok), None)
    if seq.rule is None or seq.tail_bound is None:
        why = "prefix-only or unbounded tail"
    elif failed is not None:
        why = f"stage {failed.index} " + (
            "is not exact" if failed.bound is None else "fails its check")
    else:
        why = ""
    return LimitCertificate(limit, method, tuple(stages), increment_sum,
                            "observed-only" if why else "certified",
                            why and why + "; residuals are observed, not certified")


def _stage_sizes(a: NatSet, limit: NatSet, size: Callable[[NatSet], ExtValue],
                 config: Config, out: Optional[NatSet] = None):
    """A ∖ limit and the sizes of A ∖ limit, limit ∖ A and A △ limit: each
    side built once (A ∖ limit not at all when the caller has it), A △ limit
    from them, each set sized once."""
    if out is None:
        out = boolean_op(a, limit, "difference", config)
    inn = boolean_op(limit, a, "difference", config)
    sym = _sides_union(out, inn, config)
    whole = size(sym)
    return (out, whole if sym is out else size(out),
            whole if sym is inn else size(inn), whole)


def _judged(k: int, removed: ExtValue, added: ExtValue, read: tuple[ExtValue, ...],
            rule: Callable[..., tuple[Fraction, bool]], **shown) -> StageRecord:
    """Stage k's record from its sizes: `rule` maps the exact values of the
    sizes in `read` to the stage's (bound, ok); a size there that is not
    exact leaves the stage with no bound, failed. `shown` holds the record's
    other fields."""
    if any(v.status != "exact" for v in read):
        return StageRecord(k, removed, added, ok=False, **shown)
    bound, ok = rule(*(v.value for v in read))
    return StageRecord(k, removed, added, bound=bound, ok=ok, **shown)


def _outside(name: str, index: int) -> NotMonotone:
    """The refusal of a stage outside the union candidate, at `index` of the
    chain handed over: `_resolve_audited` renames it as its caller names it."""
    err = NotMonotone(f"{name} is not contained in the limit candidate")
    err.index = index
    return err


# ---------------------------------------------------------------------------
# union limits for increasing sequences


def _union_candidate(nu: str, items: Sequence[NatSet], limit: Optional[NatSet],
                     config: Config):
    """The exact increment measures of an increasing chain, its union limit
    candidate (the declared `limit`, else the union of the chain) and each
    stage minus that candidate: every check of the union pipeline that can
    raise past the flag and depth checks, in its order, and no record."""
    _, increments = _increments(items, "increment",
                                lambda d: evaluate_measure(nu, d, config), config)
    limit = _union(items, config) if limit is None else limit
    outside = []
    for n, a in enumerate(items):
        out_part = boolean_op(a, limit, "difference", config)
        if least_member(out_part) is not None:
            raise _outside(f"stage {n}", n)
        outside.append(out_part)
    return increments, limit, outside


def sigma_limit(nu: str, seq: SetSequence, depth: Optional[int] = None,
                config: Config = DEFAULT_CONFIG) -> LimitCertificate:
    """Union limit of an increasing sequence under a sigma-subadditive
    measure: the declared limit when the sequence carries one (verified to
    contain every observed member), else the union of the observed prefix.
    Stage n passes when it lies in the limit and nu(A minus A_n) is at most
    the larger of the increment tail sum from n and the declared tail bound."""
    items = [seq.item(i) for i in range(_observed_depth(seq, depth, "sigma_limit"))]
    increments, limit, outside = _union_candidate(nu, items, seq.limit, config)
    stages = []
    for n, (a, out_part) in enumerate(zip(items, outside)):
        _, removed, added, _ = _stage_sizes(
            a, limit, lambda x: evaluate_measure(nu, x, config), config, out_part)
        bound = sum(increments[n:], Fraction(0))
        if seq.tail_bound is not None:
            bound = max(bound, seq.tail_bound(n))
        stages.append(_judged(n, removed, added, (removed, added),
                              lambda r, d: (bound, r == 0 and d <= bound)))
    return _verdict(limit, "sigma-union", stages, sum(increments, Fraction(0)), seq)


# ---------------------------------------------------------------------------
# tail-cut limits for lscsm norms


def _least_cut(desc, b: NatSet, target: Fraction, config: Config) -> int:
    """The least n with phi(B minus n) at most the target, by bisection:
    tails are nonincreasing in the cut. On a B that natset.finite_part finds
    finite the tail changes only at the cuts e + 1 of its members e (B minus
    n loses a member only there), so the bisection runs over 0 and those
    cuts and reads ceil(log2 |B|) + 1 tails at most. Any other B gets an
    exponential probe, bounded by config.cut_search_max, and a bisection
    over [0, probe]."""
    def ok(n: int) -> bool:
        t = tail_value(desc, b, n, config)
        if t.status != "exact":
            raise NoExactNorm(f"tail of {b.kind} at cut {n} is {t.status}")
        return t.value <= target

    if ok(0):
        return 0
    fin = finite_part(b)
    if fin is not None:
        # B ∖ (max B + 1) is empty, and every lscsm is exactly 0 there
        cuts = [0] + [e + 1 for e in fin.elements]
        hi = len(cuts) - 1
        cut = cuts.__getitem__
    else:
        cut = int
        hi = 1
        while not ok(hi):
            hi *= 2
            if hi > config.cut_search_max:
                raise NoValidCut(f"no cut below {config.cut_search_max} brings "
                                 f"the tail under {target}")
    return cut(_bisect(lambda i: ok(cut(i)), 0, hi))


def lscsm_limit(phi: str, seq: SetSequence, depth: Optional[int] = None,
                config: Config = DEFAULT_CONFIG) -> LimitCertificate:
    """Limit of an increasing sequence whose increments have summable
    exhaustive norms under a lower semicontinuous submeasure.

    For each increment B_j the builder picks the least cut n_j with
    phi(B_j minus n_j) <= 2 ||B_j|| (the factor 2 is kept verbatim even when
    the norm is 0), forces the cuts strictly increasing, and returns
    A = A_0 ∪ ⋃_j (B_j minus n_j). The certificate verifies A_k minus A ⊆ n_k
    exactly and bounds ||A △ A_k|| by 4 times the increment norm tail.
    """
    # an unknown name is reported after the flag check, before the depth check
    desc = get_lscsm(phi) if seq.monotone else None

    def norm(b: NatSet) -> ExtValue:
        # the value alone: every norm here is read for it, never for a profile
        return exhaustive_norm(desc, b, config, profile_cuts=()).value

    items = [seq.item(i) for i in range(_observed_depth(seq, depth, "lscsm_limit"))]
    incs, norms = _increments(items, "increment norm", norm, config)

    cuts: list[int] = []
    trimmed: list[NatSet] = []
    for j, b in enumerate(incs):
        cuts.append(max(_least_cut(desc, b, 2 * norms[j], config),
                        cuts[-1] + 1 if cuts else 0))
        trimmed.append(drop_below(b, cuts[-1], config))
    limit = _union([items[0]] + trimmed, config)

    stages = []
    for k, a in enumerate(items):
        out_part, removed, added, residual = _stage_sizes(a, limit, norm, config)
        cut_k = cuts[k] if k < len(cuts) else (cuts[-1] + 1 if cuts else 0)
        contained = drop_below(out_part, cut_k, config).is_empty_surely()
        tail = 4 * sum(norms[k:], Fraction(0))
        if seq.tail_bound is not None:
            tail = max(tail, 4 * seq.tail_bound(k))
        stages.append(_judged(
            k, removed, added, (removed, residual),
            lambda r, s: (tail, contained and r == 0 and s <= tail),
            symdiff=residual, cut=cut_k))
    return _verdict(limit, "tail-cut", stages, sum(norms, Fraction(0)), seq)


# ---------------------------------------------------------------------------
# the general pipeline


def sigma_union_oracle(nu: str, config: Config = DEFAULT_CONFIG) -> Ap0Oracle:
    """The shipped oracle: the union limit candidate of the increasing chain
    it is handed (the declared limit, else the union of the chain). It runs
    what sigma_limit runs on its stages before their records, so it raises
    where and as sigma_limit raises, and it builds no certificate."""
    return Ap0Oracle(f"sigma-union[{nu}]",
                     lambda chain, limit: _union_candidate(nu, chain, limit, config)[1])


def _resolve_audited(nu: str, oracle: Ap0Oracle, chain: list[NatSet],
                     name: Callable[[int], str], answer: str, config: Config,
                     limit: Optional[NatSet] = None):
    """The oracle's answer A for the increasing chain its caller built and
    each stage minus A, after checking nu(stage minus A) = 0 exactly at
    every stage. The chain is increasing by construction, so it goes over
    as a list, unproved; a run of equal stages reaches the oracle and the
    audit once. A stage that breaks the contract, or that the union oracle
    finds outside its candidate, is named by `name` of the index its run
    starts at, and A by `answer`."""
    firsts = [j for j, x in enumerate(chain) if j == 0 or x != chain[j - 1]]
    try:
        got = oracle.resolver([chain[j] for j in firsts], limit)
    except NotMonotone as e:
        if not hasattr(e, "index"):
            raise
        raise _outside(name(firsts[e.index]), firsts[e.index]) from None
    outs = []
    for j, x in enumerate(chain):
        if j in firsts:  # a later stage of a run shares its first's part
            out = boolean_op(x, got, "difference", config)
            r = evaluate_measure(nu, out, config)
            if r.status != "exact" or r.value != 0:
                raise OracleContractViolated(
                    f"oracle {oracle.name} left measure "
                    f"{r.value if r.status == 'exact' else r.status} "
                    f"of {name(j)} outside {answer}")
        outs.append(out)
    return got, outs


def cauchy_to_limit(nu: str, seq: SetSequence, oracle: Ap0Oracle,
                    depth: Optional[int] = None,
                    config: Config = DEFAULT_CONFIG) -> LimitCertificate:
    """Limit of a certified Cauchy sequence through an existence oracle.

    The pipeline extracts a subsequence A_{n_i} realizing nu(A_i △ A_j) <
    2^-i and forms the nested intersections B_i of its tails, each recovered
    by the oracle from its complement chain; one more oracle call on the
    increasing unions C_i of the B_i gives A. Stage i passes when
    nu(A_{n_i} △ A) < 2^{1-i} + nu(C_i △ A), the recorded bound, and
    nu(C_i △ A) <= tail_bound(n_i), the sinking half of the oracle contract.

    On a verified nested chain B_i and C_i are A_{n_i} itself: only the
    final answer goes to the oracle, and no union is built. The modulus
    repeats stages (4 distinct ones of 12 for `multiples`); a level whose
    stage equals the one before reuses its sizes.
    """
    depth = _observed_depth(seq, depth)
    profile = cauchy_profile(nu, seq, depth, config, full_table=False)
    if not profile.certified:
        raise NotCauchy(
            "the sequence has no certified Cauchy modulus: " + profile.note)
    # the modulus levels run k = 0, 1, ...: level i picks the i-th stage
    indices = [idx for _, idx in profile.modulus[:depth]]
    sub = [seq.item(j) for j in indices]
    if len(sub) < 2:
        raise NotCauchy("modulus extraction produced fewer than two stages")

    if _verified_nested(seq, indices, sub, config):
        c_sets = sub
    else:
        # B_i from the oracle on the increasing complement chain of the
        # nested intersections of sub[i:]; C_i = the union of the B_k so far
        b_sets = [complement(_resolve_audited(
            nu, oracle,
            [complement(x, config)
             for x in _running(sub[i:], "intersection", config)],
            "stage {}".format, f"its level-{i} answer", config)[0], config)
            for i in range(len(sub))]
        c_sets = _running(b_sets, "union", config)
    # C_i stands for the stage A_{n_i} (it is that stage on a nested chain)
    limit, outs = _resolve_audited(nu, oracle, c_sets, lambda i: f"stage {indices[i]}",
                                   "the final answer", config, seq.limit)

    stages = []
    for i, (n, a, c, out) in enumerate(zip(indices, sub, c_sets, outs)):
        if i == 0 or a != sub[i - 1]:
            _, removed, added, measured = _stage_sizes(
                a, limit, lambda x: evaluate_measure(nu, x, config), config,
                out if c is a else None)
            di = _clamp_unit(measured)
        ci = di if c == a else dist(nu, c, limit, config)

        def rule(d, e):
            cap = Fraction(2, 2 ** i) + e
            return cap, d < cap and (seq.tail_bound is None or e <= seq.tail_bound(n))
        stages.append(_judged(i, removed, added, (di, ci), rule, symdiff=di))
    return _verdict(limit, "cauchy-pipeline", stages, None, seq)
