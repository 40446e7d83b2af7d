"""Constructive limit builders for Cauchy sequences of sets.

Three pipelines produce a candidate limit together with a machine-checkable
certificate: a union limit for increasing sequences under sigma-subadditive
measures, a tail-cut construction for lower semicontinuous submeasures whose
increments have summable exhaustive norms, and a general Cauchy-to-limit
pipeline that delegates the existence step to a pluggable oracle and then
audits what the oracle returned. That audit, nu(stage minus answer) = 0 at
every stage of the chain handed to the oracle, is `_resolve_audited`, the
one place that calls an oracle.

Certificates never promise more than was computed: a verdict of "certified"
requires rule-backed sequences, exact values throughout, and a declared tail
bound that the observed data respects. Everything else is "observed-only".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

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
from .values import ExtValue, exact

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
    """Existence step for the Cauchy-to-limit pipeline.

    The resolver takes an increasing sequence with summable increment
    measures and returns a set A that contains every member up to measure
    zero: nu(A_n minus A) = 0 at all observed n, with nu(A minus A_n)
    sinking along the profile. The pipeline re-checks the zero residuals
    and raises OracleContractViolated if the resolver cheats.
    """

    name: str
    resolver: Callable[[SetSequence], NatSet]


def _exact_or_raise(v: ExtValue, what: str) -> Fraction:
    if v.status == "infinite":
        raise NonSummableIncrements(f"{what} has infinite measure")
    if v.status != "exact":
        raise NoExactNorm(f"{what} does not evaluate exactly ({v.status})")
    return v.value


def _union(parts, config):
    sets = [p for p in parts if not p.is_empty_surely()]
    return _running(sets, "union", config)[-1] if sets else FiniteSet(())


def _observed_depth(seq: SetSequence, depth: Optional[int]) -> int:
    if depth is None:
        depth = len(seq.prefix)
    if depth < 1:
        raise ValueError("need at least one stage")
    if depth > len(seq.prefix) and seq.rule is None:
        depth = len(seq.prefix)
    return depth


def _increments(seq: SetSequence, depth: Optional[int], who: str, what: str,
                size: Callable[[NatSet], ExtValue], config: Config):
    """The observed stages A_0..A_{d-1} of a monotone sequence, its
    increments B_j = A_{j+1} minus A_j and their exact sizes, each size read
    before the next increment is built."""
    if not seq.monotone:
        raise NotMonotone(f"{who} needs the monotone flag, verified on the prefix")
    depth = _observed_depth(seq, depth)
    items = [seq.item(i) for i in range(depth)]
    incs: list[NatSet] = []
    sizes: list[Fraction] = []
    for j in range(depth - 1):
        incs.append(boolean_op(items[j + 1], items[j], "difference", config))
        sizes.append(_exact_or_raise(size(incs[-1]), f"{what} {j}"))
    return items, incs, sizes


def _verdict(limit: NatSet, method: str, stages: list[StageRecord],
             increment_sum: Fraction, seq: SetSequence) -> LimitCertificate:
    """Certified only when every stage passed (an inexact stage never does)
    and a rule and a declared tail bound back the observed data."""
    certified = (all(s.ok for s in stages)
                 and seq.rule is not None and seq.tail_bound is not None)
    note = "" if certified else (
        "prefix-only or unbounded tail; residuals are observed, not certified")
    return LimitCertificate(limit, method, tuple(stages), increment_sum,
                            "certified" if certified else "observed-only", note)


# ---------------------------------------------------------------------------
# union limits for increasing sequences


def _union_candidate(nu: str, seq: SetSequence, depth: Optional[int],
                     config: Config):
    """The observed stages, their exact increment measures, the union limit
    candidate and each stage minus that candidate: every check of the union
    pipeline that can raise, in its order, and no stage record."""
    items, _, increments = _increments(
        seq, depth, "sigma_limit", "increment",
        lambda d: evaluate_measure(nu, d, config), config)
    limit = seq.limit if seq.limit is not None else _union(items, config)
    outside = []
    for n, a in enumerate(items):
        out_part = boolean_op(a, limit, "difference", config)
        if least_member(out_part) is not None:
            raise NotMonotone(
                f"stage {n} is not contained in the limit candidate")
        outside.append(out_part)
    return items, increments, limit, outside


def sigma_limit(nu: str, seq: SetSequence, depth: Optional[int] = None,
                config: Config = DEFAULT_CONFIG) -> LimitCertificate:
    """Union limit of an increasing sequence under a sigma-subadditive
    measure.

    The limit is the declared one when the sequence carries it (verified to
    contain every observed member), otherwise the union of the observed
    prefix. Residuals nu(A minus A_n) are bounded by the increment tail
    sums; the verdict is certified only when a rule and a declared tail
    bound back the observed data.
    """
    items, increments, limit, outside = _union_candidate(nu, seq, depth, config)
    stages = []
    for n, (a, out_part) in enumerate(zip(items, outside)):
        removed = evaluate_measure(nu, out_part, config)
        added = evaluate_measure(nu, boolean_op(limit, a, "difference", config),
                                 config)
        if removed.status != "exact" or added.status != "exact":
            stages.append(StageRecord(n, removed, added, ok=False))
            continue
        tail = sum(increments[n:], Fraction(0))
        cap = seq.tail_bound(n) if seq.tail_bound is not None else None
        bound = max(tail, cap) if cap is not None else tail
        ok = removed.value == 0 and added.value <= bound
        stages.append(StageRecord(n, removed, added, bound=bound, ok=ok))
    return _verdict(limit, "sigma-union", stages, sum(increments, Fraction(0)), seq)


# ---------------------------------------------------------------------------
# tail-cut limits for lscsm norms


def _least_cut(desc, b: NatSet, target: Fraction, config: Config) -> int:
    """The least n with phi(B minus n) at most the target. Tail values are
    nonincreasing in the cut, so the least cut is found by bisection.

    On a B that natset.finite_part finds finite, the tail is constant
    between the cuts e + 1 of its members e, since B minus n loses a member
    only as n passes e + 1. The least cut is then 0 or one of those cuts,
    and bisecting over them reads at most ceil(log2 |B|) + 2 tails where
    bisecting over [0, max B + 1] reads about log2(max B) + 2. Any other B
    gets an exponential probe first, bounded by config.cut_search_max, and a
    bisection over [0, probe].
    """
    def ok(n: int) -> bool:
        t = tail_value(desc, b, n, config)
        if t.status != "exact":
            raise NoExactNorm(f"tail of {b.kind} at cut {n} is {t.status}")
        return t.value <= target

    if ok(0):
        return 0
    fin = finite_part(b)
    if fin is not None:
        cuts = [0] + [e + 1 for e in fin.elements] if fin.elements else [0, 1]
        hi = len(cuts) - 1
        if not ok(cuts[hi]):
            raise NoValidCut("finite set keeps positive tail past its maximum")
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

    items, incs, norms = _increments(
        seq, depth, "lscsm_limit", "increment norm", norm, config)

    cuts: list[int] = []
    trimmed: list[NatSet] = []
    prev = -1
    for j, b in enumerate(incs):
        n_j = max(_least_cut(desc, b, 2 * norms[j], config), prev + 1)
        prev = n_j
        cuts.append(n_j)
        trimmed.append(drop_below(b, n_j, config))

    limit = _union([items[0]] + trimmed, config)

    stages = []
    for k, a in enumerate(items):
        # A_k ∖ A and A ∖ A_k once each, A_k △ A from them, each normed once
        out_part = boolean_op(a, limit, "difference", config)
        inn = boolean_op(limit, a, "difference", config)
        sym = _sides_union(out_part, inn, config)
        cut_k = cuts[k] if k < len(cuts) else (cuts[-1] + 1 if cuts else 0)
        contained = drop_below(out_part, cut_k, config).is_empty_surely()
        residual = norm(sym)
        removed = residual if sym is out_part else norm(out_part)
        added = residual if sym is inn else norm(inn)
        if removed.status != "exact" or residual.status != "exact":
            stages.append(StageRecord(k, removed, added, symdiff=residual,
                                      cut=cut_k, ok=False))
            continue
        tail = 4 * sum(norms[k:], Fraction(0))
        if seq.tail_bound is not None:
            tail = max(tail, 4 * seq.tail_bound(k))
        ok = contained and removed.value == 0 and residual.value <= tail
        stages.append(StageRecord(k, removed, added, symdiff=residual, bound=tail,
                                  cut=cut_k, ok=ok))
    return _verdict(limit, "tail-cut", stages, sum(norms, Fraction(0)), seq)


# ---------------------------------------------------------------------------
# the general pipeline


def sigma_union_oracle(nu: str, config: Config = DEFAULT_CONFIG) -> Ap0Oracle:
    """The shipped oracle: resolve an increasing sequence by its union
    limit candidate (the declared limit, else the union of the prefix).

    It runs what sigma_limit runs before its stage records, so it raises
    where sigma_limit raises: on an inexact or infinite increment measure,
    and on a stage outside the candidate. It builds no certificate;
    `_resolve_audited` re-checks nu(stage minus answer) = 0 itself.
    """
    def resolve(seq: SetSequence) -> NatSet:
        return _union_candidate(nu, seq, None, config)[2]

    return Ap0Oracle(f"sigma-union[{nu}]", resolve)


def _resolve_audited(nu: str, oracle: Ap0Oracle, chain: list[NatSet], stage: str,
                     answer: str, config: Config,
                     limit: Optional[NatSet] = None) -> NatSet:
    """The oracle's answer A for the increasing chain, after checking the
    contract half nu(stage minus A) = 0 exactly at every stage;
    OracleContractViolated names the first stage that breaks it, by the
    template `stage`, and the answer by `answer`."""
    # the chain's running unions, so that the monotone check of the sequence
    # cannot trip over representation quirks; a union with an equal operand
    # is its left operand, so a run of equal stages is one object, handed
    # over and audited once under the index that starts the run
    run = _running(chain, "union", config)
    firsts = [j for j, x in enumerate(run) if j == 0 or x is not run[j - 1]]
    chain_seq = SetSequence(prefix=tuple(run[j] for j in firsts), monotone=True,
                            limit=limit)
    got = oracle.resolver(chain_seq)
    for j, x in zip(firsts, chain_seq.prefix):
        r = evaluate_measure(nu, boolean_op(x, got, "difference", config), config)
        if r.status != "exact" or r.value != 0:
            raise OracleContractViolated(
                f"oracle {oracle.name} left measure {r.value if r.status == 'exact' else r.status} "
                f"of {stage.format(j)} outside {answer}")
    return got


def cauchy_to_limit(nu: str, seq: SetSequence, oracle: Ap0Oracle,
                    depth: Optional[int] = None,
                    config: Config = DEFAULT_CONFIG) -> LimitCertificate:
    """Limit of a certified Cauchy sequence through an existence oracle.

    The pipeline extracts a subsequence realizing nu(A_i △ A_j) < 2^-i,
    forms the nested intersections B_{i,j}, applies the oracle to their
    complement chains to recover the per-level sets B_i, then applies it
    once more to the increasing unions C_i to obtain A. The certificate
    re-checks the oracle's zero residuals exactly (OracleContractViolated
    otherwise) and audits nu(A_i △ A) < 2^{1-i} + nu(C_i △ A) stage by
    stage.

    What is computed once. The modulus repeats stages (at depth 12 the
    `multiples` family picks only 4 distinct ones). On a verified nested
    chain equal indices name one set, so a run of them makes one oracle
    call and one evaluation of A_i ∖ A, A ∖ A_i and A_i △ A, and each level
    of the run keeps its own record and cap. Where C_i equals A_i, as it
    does on every nested chain, nu(C_i △ A) is the nu(A_i △ A) already
    computed, and no distance is read for it. That reuse is exact, and it
    shows that the stage check is then vacuous: the cap 2^{1-i} + nu(A_i △ A)
    always exceeds nu(A_i △ A). The verdict is kept as it is.
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

    # B_i from the oracle on the increasing complement chains of the nested
    # intersections of sub[i:]; on a verified nested sub-sequence (the
    # modulus indices ascend) each of those intersections is sub[i] itself
    nested = _verified_nested(seq, indices, sub, config)
    repeats = [nested and i > 0 and indices[i] == indices[i - 1]
               for i in range(len(sub))]
    b_sets: list[NatSet] = []
    for i in range(len(sub)):
        if repeats[i]:
            b_sets.append(b_sets[-1])
            continue
        chain = [sub[i]] if nested else _running(sub[i:], "intersection", config)
        e_i = _resolve_audited(nu, oracle, [complement(x, config) for x in chain],
                               "stage {}", f"its level-{i} answer", config)
        b_sets.append(complement(e_i, config))
    # C_i = union of the B_k so far, then one more oracle call for A
    c_sets = _running(b_sets, "union", config)
    limit = _resolve_audited(nu, oracle, c_sets, "C_{}", "the final answer", config,
                             seq.limit)

    stages = []
    for i, a in enumerate(sub):
        if not repeats[i]:
            # A_i ∖ A and A ∖ A_i once each, and A_i △ A from them
            out = boolean_op(a, limit, "difference", config)
            inn = boolean_op(limit, a, "difference", config)
            sym = _sides_union(out, inn, config)
            measured = evaluate_measure(nu, sym, config)
            di = _clamp_unit(measured)
            ci = di if c_sets[i] == a else dist(nu, c_sets[i], limit, config)
            removed = measured if sym is out else evaluate_measure(nu, out, config)
            added = measured if sym is inn else evaluate_measure(nu, inn, config)
        if di.status != "exact" or ci.status != "exact":
            stages.append(StageRecord(i, removed, added, symdiff=di, ok=False))
            continue
        cap = Fraction(2, 2 ** i) + ci.value
        stages.append(StageRecord(i, removed, added, symdiff=di,
                                  bound=cap, ok=di.value < cap))

    all_ok = all(s.ok for s in stages)
    return LimitCertificate(limit, "cauchy-pipeline", tuple(stages), None,
                            "certified" if all_ok else "observed-only",
                            "" if all_ok else "a stage misses the pipeline bound")
