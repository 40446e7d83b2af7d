"""The density pseudometric d(A, B) = min{1, nu(A △ B)} and its probes.

Any submeasure or upper density nu induces a pseudometric on sets of
naturals through the measure of the symmetric difference, clamped at 1.
Distance zero does not imply equality (finite differences are invisible to
the densities), which is what makes the completeness question substantive.

This module evaluates the metric on structured backends, checks the
pseudometric axioms with exact arithmetic, profiles Cauchy sequences with
certified moduli where the presentation supports them, and probes pairs of
norms for metric equivalence or its failure.

Sequences are finitely presented: an explicit prefix plus an optional
closed-form rule. Tail claims (certified moduli, declared limits) are only
honoured when a rule and a certified tail bound accompany the prefix;
prefix-only sequences always yield observed-only reports.

A Cauchy certificate reads only each member's largest distance to a later
member. On a nested chain A_0 ⊆ A_1 ⊆ ... ⊆ A_{d-1} that is the distance
to the last member: for i <= j < d, A_i △ A_j = A_j ∖ A_i lies inside
A_{d-1} ∖ A_i, and every submeasure and upper density is monotone. So d
distances stand in for the d(d+1)/2 pairs. A chain counts as nested only
when it is verified: the monotone flag checks the prefix exactly, and a
rule-built member past it is checked by the same test. Any other sequence,
and any chain with an inexact distance to its last member, gets the full
pairwise table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable, Optional, Sequence

from . import exhaust  # a module reference: its body runs on the first norm
from .config import Config, DEFAULT_CONFIG
from .density import get_functional
from .exceptions import (
    DensitasError,
    IncompatibleBackends,
    InsufficientPrefix,
    NotMonotone,
    SampleNotExact,
)
from .natset import NatSet, boolean_op, finite_part, least_member
from .reports import AxiomReport, CheckRecord
from .values import ExtValue, bracket, exact, observational

__all__ = [
    "SetSequence",
    "CauchyReport",
    "RatioReport",
    "CoConvergenceReport",
    "evaluate_measure",
    "dist",
    "check_pseudometric",
    "cauchy_profile",
    "metric_equivalence_probe",
    "topological_coconvergence_probe",
]


# ---------------------------------------------------------------------------
# sequences


@dataclass(frozen=True)
class SetSequence:
    """A finitely presented sequence of sets.

    `prefix` lists the first members explicitly; `rule`, when present, must
    agree with the prefix and extends the sequence to every index. The
    `monotone` flag asserts A_n ⊆ A_{n+1} and is verified on the prefix at
    construction. `tail_bound(i)`, when present, is a certified upper bound
    on sum_{j >= i} nu(A_{j+1} △ A_j) under the measure the sequence is
    meant for; it is what turns observed Cauchy tables into certificates.
    `limit` is a declared limit candidate used by convergence probes.
    """

    prefix: tuple[NatSet, ...]
    rule: Optional[Callable[[int], NatSet]] = None
    monotone: bool = False
    tail_bound: Optional[Callable[[int], Fraction]] = None
    limit: Optional[NatSet] = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        if not self.prefix and self.rule is None:
            raise ValueError("a sequence needs a prefix or a rule")
        if self.rule is not None:
            for i, a in enumerate(self.prefix):
                if self.rule(i) != a:
                    raise ValueError(f"rule and prefix disagree at index {i}")
        if self.monotone:
            for i in range(len(self.prefix) - 1):
                stray = least_member(
                    boolean_op(self.prefix[i], self.prefix[i + 1], "difference"))
                if stray is not None:
                    raise NotMonotone(
                        f"A_{i} is not contained in A_{i + 1}: "
                        f"element {stray} drops out")

    def __len__(self) -> int:
        return len(self.prefix)

    def item(self, n: int) -> NatSet:
        if n < len(self.prefix):
            return self.prefix[n]
        if self.rule is not None:
            return self.rule(n)
        raise InsufficientPrefix(
            f"index {n} beyond the {len(self.prefix)}-element prefix and no rule given")

    @classmethod
    def constant(cls, a: NatSet, length: int = 3, label: str = "") -> "SetSequence":
        return cls(prefix=(a,) * length, rule=lambda n: a, monotone=True,
                   tail_bound=lambda i: Fraction(0),
                   limit=a, label=label or "constant")


# ---------------------------------------------------------------------------
# measure resolution


def evaluate_measure(nu: str, a: NatSet, config: Config = DEFAULT_CONFIG) -> ExtValue:
    """The total value nu(A) for a functional or submeasure name.

    Upper densities and measures resolve through the density registry;
    anything else is taken as an lscsm and evaluated as phi(A) =
    sup_n phi(A ∩ n), the tail value at cut 0. `norm:<lscsm>` asks for the
    exhaustive norm instead of the total.
    """
    if nu.startswith("norm:"):
        return exhaust.exhaustive_norm(nu[len("norm:"):], a, config, profile_cuts=()).value
    try:
        fd = get_functional(nu)
    except KeyError:
        return exhaust.tail_value(exhaust.get_lscsm(nu), a, 0, config)
    return fd.evaluate(a, config)


def _clamp_unit(v: ExtValue) -> ExtValue:
    if v.status == "exact":
        return exact(min(v.value, Fraction(1)))
    if v.status == "infinite":
        return exact(1)
    if v.status == "bracket":
        lo = min(v.lower, Fraction(1)) if v.lower is not None else Fraction(0)
        hi = min(v.upper, Fraction(1)) if v.upper is not None else Fraction(1)
        if lo == hi:
            return exact(lo)
        return bracket(lo, hi, v.note)
    return observational(min(v.value, Fraction(1)), v.note)


def dist(nu: str, a: NatSet, b: NatSet, config: Config = DEFAULT_CONFIG) -> ExtValue:
    """d_nu(A, B) = min{1, nu(A △ B)}, exact whenever nu is exact on the
    symmetric difference's backend. Always lands in [0, 1]. An operand whose
    rule part is empty enters as its natset.finite_part where the two
    backends do not combine, so it is at the distance of its finite twin."""
    try:
        sym = boolean_op(a, b, "symdiff", config)
    except IncompatibleBackends:
        fa, fb = finite_part(a), finite_part(b)
        if fa is None and fb is None:
            raise
        sym = boolean_op(a if fa is None else fa, b if fb is None else fb, "symdiff", config)
    return _clamp_unit(evaluate_measure(nu, sym, config))


# ---------------------------------------------------------------------------
# pseudometric axioms


def check_pseudometric(nu: str, samples: Sequence[tuple[NatSet, NatSet, NatSet]],
                       config: Config = DEFAULT_CONFIG,
                       dist_fn: Optional[Callable[[NatSet, NatSet], ExtValue]] = None,
                       ) -> AxiomReport:
    """Identity, symmetry, the triangle inequality and the unit bound,
    checked exactly on each sample triple. Pass dist_fn to audit a foreign
    distance (the negative fixtures feed a non-subadditive one)."""
    dd = dist_fn if dist_fn is not None else (
        lambda x, y: dist(nu, x, y, config))
    records: list[CheckRecord] = []
    for t, (a, b, c) in enumerate(samples):
        vals = {}
        skip_reason = ""
        for key, (x, y) in (("ab", (a, b)), ("ba", (b, a)), ("ac", (a, c)),
                            ("bc", (b, c)), ("aa", (a, a))):
            try:
                v = dd(x, y)
            except IncompatibleBackends as e:
                skip_reason = str(e)
                break
            if v.status != "exact":
                skip_reason = "distance not exact on this backend"
                break
            vals[key] = v.value
        if skip_reason:
            records.append(CheckRecord(f"triple[{t}]", "skip", skip_reason))
            continue
        records.append(CheckRecord(
            f"identity[{t}]", "pass" if vals["aa"] == 0 else "fail",
            "d(A,A) = 0", witness=str(vals["aa"])))
        records.append(CheckRecord(
            f"symmetry[{t}]", "pass" if vals["ab"] == vals["ba"] else "fail",
            "d(A,B) = d(B,A)"))
        records.append(CheckRecord(
            f"triangle[{t}]",
            "pass" if vals["ac"] <= vals["ab"] + vals["bc"] else "fail",
            "d(A,C) <= d(A,B) + d(B,C)",
            witness=[str(vals["ac"]), str(vals["ab"]), str(vals["bc"])]))
        records.append(CheckRecord(
            f"unit-bound[{t}]",
            "pass" if all(0 <= x <= 1 for x in vals.values()) else "fail",
            "distances land in [0,1]"))
    return AxiomReport(f"pseudometric d[{nu}]", tuple(records))


# ---------------------------------------------------------------------------
# Cauchy profiling


@dataclass(frozen=True)
class CauchyReport:
    """Pairwise distances of a sequence prefix with a modulus extraction.

    The table is symmetric with a zero diagonal, or, from
    `cauchy_profile(..., full_table=False)` on a verified nested chain, the
    one row d(A_i, A_{d-1}) for i < d. `modulus` lists pairs
    (k, index) meaning every distance between members at or beyond the index
    is below 2^-k; `certified` marks moduli backed by a rule plus a declared
    summable tail bound rather than by the observed table alone.
    """

    measure: str
    depth: int
    table: tuple[tuple[ExtValue, ...], ...]
    modulus: tuple[tuple[int, int], ...]
    certified: bool
    note: str = ""

    @property
    def observed_max(self) -> Optional[Fraction]:
        best = Fraction(0)
        for row in self.table:
            for v in row:
                if v.status != "exact":
                    return None
                best = max(best, v.value)
        return best


def _verified_nested(seq: SetSequence, indices: Sequence[int],
                     items: Sequence[NatSet], config: Config) -> bool:
    """Whether `items`, the members of seq at the ascending `indices`, form
    a verified chain A ⊆ A' ⊆ ...: the monotone flag verified the prefix,
    and each step that reaches past it is checked here, by the same exact
    test. A step that cannot be decided counts as not nested."""
    if not seq.monotone:
        return False
    past = len(seq.prefix)
    try:
        return all(least_member(boolean_op(items[j - 1], items[j], "difference",
                                           config)) is None
                   for j in range(1, len(items)) if indices[j] >= past)
    except DensitasError:
        return False


def _last_column(nu: str, seq: SetSequence, items: Sequence[NatSet],
                 config: Config) -> Optional[tuple[ExtValue, ...]]:
    """d(A_i, A_{d-1}) for every i < d, when the chain is verified nested
    and each of those distances is exact; None sends the caller to the
    table, as does any error a distance raises, so that the table raises
    it where it always has."""
    if not _verified_nested(seq, range(len(items)), items, config):
        return None
    try:
        column = tuple(dist(nu, a, items[-1], config) for a in items)
    except DensitasError:
        return None
    return column if all(v.status == "exact" for v in column) else None


def cauchy_profile(nu: str, seq: SetSequence, depth: int,
                   config: Config = DEFAULT_CONFIG,
                   full_table: bool = True) -> CauchyReport:
    """Pairwise distance table for the first `depth` members plus a Cauchy
    modulus at the levels k < 16.

    The observed modulus for level k is the least index past which every
    tabulated distance is below 2^-k. When the sequence carries a rule and a
    certified tail bound on its increment measures, the modulus is taken
    from the bound instead (subadditivity chains d(A_i, A_j) through the
    increments), and the report is marked certified; the observed table must
    respect the bound or the certificate is withheld.

    `full_table=False` asks for the certificate and the modulus only. On a
    verified nested chain (see the module docstring) it reads the d
    distances to the last member instead of the d(d+1)/2 pairs, and the
    report's table is that one column, as a single row; on any other
    sequence, or when a column distance is inexact, it fills the table.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if depth > len(seq.prefix) and seq.rule is None:
        raise InsufficientPrefix(
            f"depth {depth} exceeds the prefix ({len(seq.prefix)}) and no rule given")
    items = [seq.item(i) for i in range(depth)]
    # row[i]: the largest d(A_i, A_j) over j >= i; worst[i]: the largest
    # distance among the members >= i; either None once a distance is inexact
    column = None if full_table else _last_column(nu, seq, items, config)
    if column is not None:
        table: tuple[tuple[ExtValue, ...], ...] = (column,)
        row: list[Optional[Fraction]] = [v.value for v in column]
        diagonal = (column[-1],)
    else:
        grid: list[list[ExtValue]] = [[exact(0)] * depth for _ in range(depth)]
        row = []
        for i in range(depth):
            for j in range(i, depth):
                grid[i][j] = grid[j][i] = dist(nu, items[i], items[j], config)
            r = grid[i][i:]
            row.append(max(v.value for v in r) if all(v.status == "exact" for v in r) else None)
        table = tuple(map(tuple, grid))
        diagonal = tuple(grid[i][i] for i in range(depth))
    worst: list[Optional[Fraction]] = [Fraction(0)] * (depth + 1)
    for i in reversed(range(depth)):
        worst[i] = None if row[i] is None or worst[i + 1] is None \
            else max(row[i], worst[i + 1])
    all_exact = worst[0] is not None and all(v.value == 0 for v in diagonal)

    note = ""
    certified = False
    # each bound once per call: every modulus level below scans from i = 0
    tail_bound = cache(lambda i: seq.tail_bound(i))
    if all_exact and seq.rule is not None and seq.tail_bound is not None:
        certified = True
        for i in range(depth):
            cap = tail_bound(i)
            if row[i] > cap:
                certified = False
                note = (f"declared tail bound violated at index {i}: "
                        f"observed {row[i]} > bound {cap}")
                break
    elif not all_exact:
        note = "table contains non-exact distances"
    else:
        note = "no rule or tail bound; modulus is observed-only"

    modulus: list[tuple[int, int]] = []
    for k in range(16):
        eps = Fraction(1, 2 ** k)
        if certified:
            idx = next((i for i in range(depth + 64 * (k + 1)) if tail_bound(i) < eps),
                       None)
        else:
            idx = next((i for i in range(depth) if worst[i] is not None and worst[i] < eps),
                       None)
        if idx is None:
            break
        modulus.append((k, idx))

    return CauchyReport(nu, depth, table, tuple(modulus), certified, note)


# ---------------------------------------------------------------------------
# metric equivalence


@dataclass(frozen=True)
class RatioReport:
    """Per-sample values of two set functions and their ratios.

    `verdict` is one of "two-sided-bounded" (every ratio respects the
    claimed constants; the constants are the cited ones, never inferred
    from samples), "ratio-diverges" (each requested target was exceeded;
    witnesses record where), or "inconclusive". Pairs with both values zero
    carry no ratio and cannot violate two-sided bounds. An infinite ratio
    (only the second value zero) is stored as -1: `min_ratio` skips it, and
    `max_ratio` is None once there is one.
    """

    name1: str
    name2: str
    values: tuple[tuple[Fraction, Fraction], ...]
    ratios: tuple[Optional[Fraction], ...]
    verdict: str
    bounds: Optional[tuple[Fraction, Fraction]] = None
    witnesses: tuple[tuple[Fraction, int], ...] = ()
    note: str = ""

    @property
    def max_ratio(self) -> Optional[Fraction]:
        vals = [r for r in self.ratios if r is not None]
        return max(vals) if vals and min(vals) >= 0 else None

    @property
    def min_ratio(self) -> Optional[Fraction]:
        vals = [r for r in self.ratios if r is not None and r >= 0]
        return min(vals) if vals else None


def metric_equivalence_probe(nu1: str, nu2: str, family: SetSequence,
                             claimed_bounds: Optional[tuple] = None,
                             targets: Sequence = (),
                             config: Config = DEFAULT_CONFIG) -> RatioReport:
    """Ratios nu1(A)/nu2(A) over a family of sets.

    With `claimed_bounds` (c1, c2) the probe confirms the cited two-sided
    bounds c1 <= ratio <= c2 hold on every sample (samples cannot prove
    universals; the constants must come from an argument, the probe only
    corroborates them). With `targets` it hunts divergence: for each target
    C it reports the first family index whose ratio exceeds C. Samples must
    evaluate exactly under both functions.
    """
    values: list[tuple[Fraction, Fraction]] = []
    ratios: list[Optional[Fraction]] = []
    for i in range(len(family)):
        a = family.item(i)
        v1 = evaluate_measure(nu1, a, config)
        v2 = evaluate_measure(nu2, a, config)
        if v1.status != "exact" or v2.status != "exact":
            raise SampleNotExact(
                f"family member {i} is not exact under {nu1!r}/{nu2!r}")
        values.append((v1.value, v2.value))
        if v2.value > 0:
            ratios.append(v1.value / v2.value)
        elif v1.value == 0:
            ratios.append(None)  # 0/0: no ratio, compatible with any bounds
        else:
            ratios.append(Fraction(-1))  # sentinel: infinite ratio

    infinite_at = [i for i, r in enumerate(ratios) if r == Fraction(-1)]
    clean = [(i, r) for i, r in enumerate(ratios) if r is not None and r >= 0]

    bounds, witnesses = None, []
    if targets:
        missing = []
        for c in targets:
            c = Fraction(c)
            idx = next((i for i, r in clean if r > c), None)
            if idx is None and infinite_at:
                idx = infinite_at[0]
            if idx is None:
                missing.append(c)
            else:
                witnesses.append((c, idx))
        if missing:
            verdict, note = "inconclusive", f"no sample exceeds target {missing[0]}"
        else:
            verdict, note = "ratio-diverges", ""
    elif claimed_bounds is not None:
        c1, c2 = Fraction(claimed_bounds[0]), Fraction(claimed_bounds[1])
        bounds = (c1, c2)
        bad = next((i for i, r in clean if not c1 <= r <= c2), None)
        if bad is None and not infinite_at:
            verdict, note = "two-sided-bounded", ""
        else:
            at = bad if bad is not None else infinite_at[0]
            verdict, note = "inconclusive", f"sample {at} violates the claimed bounds"
    else:
        verdict, note = "inconclusive", "no claimed bounds and no divergence targets"
    return RatioReport(nu1, nu2, tuple(values), tuple(ratios), verdict,
                       bounds=bounds, witnesses=tuple(witnesses), note=note)


# ---------------------------------------------------------------------------
# topological co-convergence


@dataclass(frozen=True)
class CoConvergenceRecord:
    label: str
    values1: tuple[Fraction, ...]
    values2: tuple[Fraction, ...]
    tends1: bool
    tends2: bool

    @property
    def agree(self) -> bool:
        return self.tends1 == self.tends2


@dataclass(frozen=True)
class CoConvergenceReport:
    name1: str
    name2: str
    records: tuple[CoConvergenceRecord, ...]

    @property
    def all_agree(self) -> bool:
        return all(r.agree for r in self.records)


def _tends_to_zero(values: Sequence[Fraction]) -> bool:
    """Observed-prefix heuristic: the last norm hit zero, or it sits well
    below both the peak and a fixed small threshold. Evidence, not proof."""
    last = values[-1]
    if last == 0:
        return True
    peak = max(values)
    return last < Fraction(1, 16) and 4 * last <= peak


def topological_coconvergence_probe(phi1: str, phi2: str,
                                    seqs: Sequence[SetSequence],
                                    config: Config = DEFAULT_CONFIG,
                                    depth: Optional[int] = None) -> CoConvergenceReport:
    """For sequences with declared limits, compare whether the exhaustive
    norms of A △ A_n sink to zero under both submeasures over the observed
    prefix. Topological equivalence would make the answers agree for every
    sequence; the probe samples, it does not prove."""
    records = []
    for seq in seqs:
        if seq.limit is None:
            raise ValueError(f"sequence {seq.label!r} has no declared limit")
        d = min(depth, len(seq)) if depth is not None else len(seq)
        if d < 1:
            raise InsufficientPrefix("need at least one prefix member")
        vals1 = []
        vals2 = []
        for i in range(d):
            sym = boolean_op(seq.limit, seq.item(i), "symdiff", config)
            for phi, out in ((phi1, vals1), (phi2, vals2)):
                est = exhaust.exhaustive_norm(phi, sym, config, profile_cuts=())
                if est.value.status != "exact":
                    raise SampleNotExact(
                        f"norm of the stage-{i} symmetric difference is not exact "
                        f"under {phi!r}")
                out.append(est.value.value)
        records.append(CoConvergenceRecord(seq.label or "seq",
                                           tuple(vals1), tuple(vals2),
                                           _tends_to_zero(vals1),
                                           _tends_to_zero(vals2)))
    return CoConvergenceReport(phi1, phi2, tuple(records))
