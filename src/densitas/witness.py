"""The explicit witness family showing the upper Banach density pseudometric
is not complete.

The construction picks a ratio kappa in (0,1), a scale N with log^2(N)/N
below (1-kappa)/2, and a factorial schedule a_0 < a_1 < ... whose factorials
dominate the thresholds n/kappa, C e^{2(n+1)} and (N+1)^2 with C = ceil(1/kappa).
Level n then contributes a block B_n = a_n! (omega minus {0}) + H_n, where
H_n holds the n smallest residues avoiding every earlier level's residue
classes, and the stages A_n = B_0 ∪ ... ∪ B_{n+1} form a Cauchy sequence
whose increments have upper density n/a_n! (summable) while every candidate
limit keeps a kappa-filled window at each level. With kappa = 1/2 the union
of the blocks has prefix densities at most 1/4 but window densities at least
1/2, so its Banach density does not exist.

Everything here is exact: residue arithmetic for the construction, interval
arithmetic with outward rounding for the transcendental thresholds, and
O(1) progression counting for the density certificates.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .bounds import _exp_scaled, _log_scaled, decide_less
from .config import Config, DEFAULT_CONFIG
from .exceptions import (
    InsufficientPrefix,
    InvariantsFailed,
    KappaMismatch,
    ScheduleTooShort,
)
from .metric import SetSequence
from .natset import APTerm, APUnionSet, NatSet, _bisect, _running, factorial_label
from .reports import AxiomReport, CheckRecord

__all__ = [
    "WitnessParams",
    "LevelRecord",
    "WitnessFamily",
    "WindowRecord",
    "DivergenceCertificate",
    "GapCertificate",
    "derive_params",
    "validate_params",
    "build_witness",
    "check_witness_invariants",
    "divergence_certificate",
    "banach_gap_certificate",
    "increment_tail_bound",
    "witness_sequence",
    "stage_density",
]


@dataclass(frozen=True)
class WitnessParams:
    """kappa with its derived scale N, cover C = ceil(1/kappa), and the
    strictly increasing schedule whose factorials are the level moduli."""

    kappa: Fraction
    scale: int
    cover: int
    schedule: tuple[int, ...]

    def modulus(self, n: int) -> int:
        return math.factorial(self.schedule[n])


@dataclass(frozen=True)
class LevelRecord:
    """Level n of the family: residues H_n inside [0, a_n!), their span
    ell_n = 1 + max - min, and the block B_n = a_n! (omega minus {0}) + H_n."""

    index: int
    entry: int
    modulus: int
    residues: tuple[int, ...]
    span: int
    block: APUnionSet
    excluded_probe: tuple[int, ...] = ()

    @property
    def increment_density(self) -> Fraction:
        return Fraction(len(self.residues), self.modulus)


@dataclass(frozen=True)
class WitnessFamily:
    params: WitnessParams
    depth: int
    levels: tuple[LevelRecord, ...]
    stages: tuple[APUnionSet, ...]
    demo: bool = False

    def __post_init__(self):
        # invariant reports by (horizon, probes), filled by
        # check_witness_invariants; not a field, so equality, repr and the
        # payload see the family alone, and `replace` starts a fresh memo
        object.__setattr__(self, "_invariants", {})


@dataclass(frozen=True)
class WindowRecord:
    level: int
    start: int
    length: int
    fill: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.fill, self.length)


@dataclass(frozen=True)
class DivergenceCertificate:
    kappa: Fraction
    increments: tuple[tuple[int, Fraction], ...]
    partial_sums: tuple[Fraction, ...]
    sum_target: Fraction
    windows: tuple[WindowRecord, ...]
    verdict: str
    demo: bool = False


@dataclass(frozen=True)
class GapCertificate:
    kappa: Fraction
    depth: int
    horizon: int
    prefix_bound: Fraction
    prefix_checks: tuple[tuple[int, int, Fraction], ...]
    windows: tuple[WindowRecord, ...]
    verdict: str
    demo: bool = False


# ---------------------------------------------------------------------------
# parameters


def _log_sq_over(n: int):
    """log^2(n)/n for a natural n >= 1 as an integer bracket (lo, hi, den):
    the log's numerators at scale w are at least 0 there, so squaring them
    keeps their order, over the denominator n 4^w."""
    def make(bits: int) -> tuple[int, int, int]:
        lo, hi, w = _log_scaled(n, bits)
        return lo * lo, hi * hi, n << 2 * w
    return make


def _scaled_exp(factor: int, exponent: int):
    """factor * e^exponent for naturals as an integer bracket (lo, hi, 2^w)."""
    def make(bits: int) -> tuple[int, int, int]:
        lo, hi, w = _exp_scaled(exponent, bits)
        return factor * lo, factor * hi, 1 << w
    return make


def _minimal_scale(kappa: Fraction) -> int:
    """Least N > e^2 with log^2(N)/N < (1-kappa)/2. The ratio is strictly
    decreasing past e^2, so a doubling probe from 16 plus binary search is
    exact, and decides each value at most once."""
    target = (1 - kappa) / 2
    ok = lambda n: decide_less(_log_sq_over(n), target)
    lo = 8  # first integer past e^2
    if ok(lo):
        return lo
    hi = 2 * lo
    while not ok(hi):
        hi *= 2
    return _bisect(ok, lo, hi)


def _clears_thresholds(a: int, n: int, kappa: Fraction, cover: int,
                       scale: int) -> bool:
    f = math.factorial(a)
    if f * kappa.numerator <= n * kappa.denominator:  # f <= n / kappa
        return False
    if f <= (scale + 1) ** 2:
        return False
    # a_n! > C e^{2(n+1)} certified from above: the interval must clear f
    return decide_less(_scaled_exp(cover, 2 * (n + 1)), f)


def derive_params(kappa, levels: int = 6) -> WitnessParams:
    """Minimal parameters for the given ratio: least valid scale, the forced
    cover, and the least strictly increasing schedule whose factorials clear
    every threshold while keeping the increment sum under its margin."""
    kappa = Fraction(kappa)
    if not 0 < kappa < 1:
        raise ValueError("the ratio must lie strictly between 0 and 1")
    if levels < 2:
        raise ValueError("a schedule needs at least two entries")
    scale = _minimal_scale(kappa)
    cover = -(-kappa.denominator // kappa.numerator)
    start_floor = 1
    while True:
        schedule: list[int] = []
        a = start_floor
        for n in range(levels):
            while not _clears_thresholds(a, n, kappa, cover, scale):
                a += 1
            schedule.append(a)
            a += 1
        partial = sum((Fraction(j, math.factorial(schedule[j]))
                       for j in range(levels)), Fraction(0))
        margin = (1 - kappa) / 2 - Fraction(1, math.factorial(schedule[-1]))
        if partial < margin:
            return WitnessParams(kappa, scale, cover, tuple(schedule))
        start_floor += 1


def validate_params(p: WitnessParams) -> AxiomReport:
    """Certified pass/fail for every parameter inequality."""
    records = []
    records.append(CheckRecord(
        "scale-exceeds-e-squared",
        "pass" if decide_less(_scaled_exp(1, 2), Fraction(p.scale))
        else "fail",
        "N > e^2 under certified interval bounds"))
    target = (1 - p.kappa) / 2
    records.append(CheckRecord(
        "log-squared-condition",
        "pass" if decide_less(_log_sq_over(p.scale), target) else "fail",
        "log^2(N)/N < (1-kappa)/2"))
    expected_cover = -(-p.kappa.denominator // p.kappa.numerator)
    records.append(CheckRecord(
        "cover-is-inverse-ceiling",
        "pass" if p.cover == expected_cover else "fail",
        "C = ceil(1/kappa)", witness=str(expected_cover)))
    increasing = all(a < b for a, b in zip(p.schedule, p.schedule[1:]))
    records.append(CheckRecord(
        "schedule-strictly-increasing",
        "pass" if increasing else "fail", str(p.schedule)))
    for n, a in enumerate(p.schedule):
        ok = _clears_thresholds(a, n, p.kappa, p.cover, p.scale)
        records.append(CheckRecord(
            f"factorial-threshold[{n}]", "pass" if ok else "fail",
            f"{a}! > max(n/kappa, C e^(2(n+1)), (N+1)^2) at n={n}"))
    partial = sum((Fraction(j, p.modulus(j)) for j in range(len(p.schedule))),
                  Fraction(0))
    margin = target - Fraction(1, p.modulus(len(p.schedule) - 1))
    records.append(CheckRecord(
        "summability-margin", "pass" if partial < margin else "fail",
        "sum of j/a_j! stays below (1-kappa)/2 minus the tail reserve",
        witness=str(partial)))
    return AxiomReport("witness parameters", tuple(records))


# ---------------------------------------------------------------------------
# construction


def _in_earlier_classes(r: int, moduli: list[int],
                        residue_sets: list[frozenset]) -> bool:
    return any((r % m) in hs for m, hs in zip(moduli, residue_sets))


def build_witness(p: WitnessParams, depth: int, demo: bool = False,
                  config: Config = DEFAULT_CONFIG) -> WitnessFamily:
    """Levels 0..depth+1 and stages A_0..A_depth.

    Level n+1 scans the naturals for the n+1 smallest residues missing from
    every earlier level's classes mod a_i! (that choice minimizes the
    maximum, since any (n+1)-subset of the available residues has a maximum
    at least the (n+1)-th smallest one). Blocks start at their modulus: the
    q = 0 copy of the residues is deliberately absent.
    """
    if depth < 0:
        raise ValueError("depth must be a natural")
    if depth + 2 > len(p.schedule):
        raise ScheduleTooShort(
            f"depth {depth} needs {depth + 2} schedule entries, "
            f"got {len(p.schedule)}")
    if not demo:
        v = validate_params(p)
        if not v.passed:
            raise InvariantsFailed(
                "parameters fail validation: "
                + "; ".join(r.name for r in v.failures)
                + " (pass demo=True to build anyway)")

    levels = [LevelRecord(0, p.schedule[0], p.modulus(0), (), 0,
                          APUnionSet(()))]
    moduli: list[int] = []
    residue_sets: list[frozenset] = []
    for n in range(1, depth + 2):
        m = p.modulus(n)
        picked: list[int] = []
        probe: list[int] = []
        r = 0
        while len(picked) < n:
            if _in_earlier_classes(r, moduli, residue_sets):
                if len(probe) < 8:
                    probe.append(r)
            else:
                picked.append(r)
            r += 1
            if r > m:
                raise InvariantsFailed(
                    f"no room for {n} residues below the level modulus")
        h = tuple(picked)
        block = APUnionSet(tuple(APTerm(m, off, 1, label=factorial_label(
            p.schedule[n])) for off in h))
        span = 1 + h[-1] - h[0]
        levels.append(LevelRecord(n, p.schedule[n], m, h, span, block,
                                  tuple(probe)))
        moduli.append(m)
        residue_sets.append(frozenset(h))

    # A_n = B_0 ∪ ... ∪ B_{n+1}; every block past level 0 is nonempty
    stages = _running([lv.block for lv in levels], "union", config)[1:]
    return WitnessFamily(p, depth, tuple(levels), tuple(stages), demo)


def stage_density(w: WitnessFamily, n: int) -> Fraction:
    """d(A_n) = sum of j/a_j! over j < n+2, exactly."""
    return sum((w.levels[j].increment_density for j in range(n + 2)),
               Fraction(0))


# ---------------------------------------------------------------------------
# invariants


def _log_probes(lo: int, hi: int, count: int) -> list[int]:
    """count geometrically spaced integers in [lo, hi], deduplicated. The
    spacing itself is approximate; only the density checks at the probes
    need to be exact."""
    if hi <= lo or count < 2:
        return [hi]
    ratio = hi / lo
    out = []
    for k in range(count):
        m = int(round(lo * ratio ** (k / (count - 1))))
        out.append(min(max(m, lo), hi))
    return sorted(set(out))


def check_witness_invariants(w: WitnessFamily, horizon: int = 10 ** 6,
                             probes: int = 64) -> AxiomReport:
    """Exact checks of the structural conditions.

    Disjointness runs on residues (every element of a later block reduces to
    its offset modulo an earlier factorial). The prefix bound is checked at
    each breakpoint (element + 1) below the horizon, each count one
    bisection of the members listed there, and at geometrically spaced
    probes up to the top modulus, using O(1) progression counting.
    The report is computed once per family and (horizon, probes); the
    certificates that need it read the same report. A horizon below 1
    checks no breakpoint, so it is refused with ValueError.
    """
    if horizon < 1:
        raise ValueError(f"the witness horizon must be >= 1, got {horizon}")
    memo = w._invariants
    if (horizon, probes) not in memo:
        memo[horizon, probes] = _invariant_report(w, horizon, probes)
    return memo[horizon, probes]


def _invariant_report(w: WitnessFamily, horizon: int, probes: int) -> AxiomReport:
    records = []
    lv = w.levels
    # (a) pairwise disjoint blocks
    for j in range(2, len(lv)):
        ok = True
        wit = None
        for i in range(1, j):
            earlier = set(lv[i].residues)
            for h in lv[j].residues:
                if (h % lv[i].modulus) in earlier:
                    ok = False
                    wit = (i, j, h)
        records.append(CheckRecord(
            f"disjoint[{j}]", "pass" if ok else "fail",
            "residues of later blocks avoid earlier classes",
            witness=wit))
    # (b) residue counts and ranges
    for n in range(1, len(lv)):
        h = lv[n].residues
        ok = len(h) == n and all(0 <= x < lv[n].modulus for x in h)
        records.append(CheckRecord(f"residue-count[{n}]",
                                   "pass" if ok else "fail",
                                   f"|H_{n}| = {n} inside [0, a_{n}!)"))
    # (c) n >= kappa * span
    for n in range(1, len(lv)):
        ok = Fraction(n) >= w.params.kappa * lv[n].span
        records.append(CheckRecord(f"span-ratio[{n}]",
                                   "pass" if ok else "fail",
                                   f"n >= kappa * ell_n at level {n}",
                                   witness=str(lv[n].span)))
    # (d) block structure: terms are exactly the residues at q >= 1
    for n in range(1, len(lv)):
        b = lv[n].block
        want = {(lv[n].modulus, off, 1) for off in lv[n].residues}
        got = {(t.modulus, t.offset, t.start) for t in b.terms}
        ok = want == got and not b.extras and not b.removals
        records.append(CheckRecord(f"block-structure[{n}]",
                                   "pass" if ok else "fail",
                                   "block terms match the residue list"))
    # (e) stage structure: A_n accumulates the blocks
    for n in range(w.depth + 1):
        want = set()
        for i in range(n + 2):
            want.update((t.modulus, t.offset, t.start)
                        for t in lv[i].block.terms)
        got = {(t.modulus, t.offset, t.start) for t in w.stages[n].terms}
        ok = want == got and not w.stages[n].extras and not w.stages[n].removals
        records.append(CheckRecord(f"stage-structure[{n}]",
                                    "pass" if ok else "fail",
                                    "stage terms are the union of its blocks"))
    # (f) prefix bound at breakpoints and probes, c/m >= p/q compared as
    # c·q >= m·p
    top = lv[-1].modulus
    limit = min(horizon, top)
    points = _log_probes(max(2, limit), top, probes)
    for n in range(w.depth + 1):
        bound = stage_density(w, n)
        counts = _prefix_counts(w.stages[n], limit, points)
        bad = next(((m, str(Fraction(c, m))) for m, c in counts
                    if c * bound.denominator >= m * bound.numerator), None)
        records.append(CheckRecord(
            f"prefix-bound[{n}]", "pass" if bad is None else "fail",
            f"|A_{n} ∩ m|/m < {bound} at {len(counts)} checkpoints",
            witness=bad))
    return AxiomReport("witness invariants", tuple(records))


def _prefix_counts(a: NatSet, limit: int, probes: list[int]) -> list[tuple[int, int]]:
    """(m, |A ∩ [0, m)|) at each checkpoint m, ascending: the breakpoints e
    and e + 1 of every member e below the limit, min(horizon, top), and the
    geometric probes from the limit up to top, which the caller lists once
    per report. Up to the limit a count is one bisection of the members
    listed there; the probes past it are counted by one `prefix_counts`
    read."""
    members = a.elements_in(0, limit)
    points = set(probes)
    for e in members:
        points.update((e, e + 1) if e >= 1 else (e + 1,))
    points = sorted(points)
    cut = bisect_right(points, limit)
    far = points[cut:]
    return ([(m, bisect_left(members, m)) for m in points[:cut]]
            + list(zip(far, a.prefix_counts(far))))


# ---------------------------------------------------------------------------
# certificates


def _require_invariants(w: WitnessFamily, horizon: int) -> None:
    """The gate of both certificates: InvariantsFailed names every failed
    invariant of the family at the horizon."""
    inv = check_witness_invariants(w, horizon)
    if not inv.passed:
        raise InvariantsFailed("witness invariants fail: "
                               + "; ".join(r.name for r in inv.failures))


def divergence_certificate(w: WitnessFamily,
                           horizon: int = 10 ** 6) -> DivergenceCertificate:
    """Exact increment norms with their partial sums, plus the level windows
    any candidate limit must keep kappa-filled."""
    _require_invariants(w, horizon)
    lv = w.levels
    target = (1 - w.params.kappa) / 2
    increments = []
    partials = []
    run = Fraction(0)
    for n in range(1, len(lv)):
        mu = lv[n].increment_density
        if mu != Fraction(n, lv[n].modulus):
            raise InvariantsFailed(f"level {n} increment is not n/a_n!")
        increments.append((n, mu))
        run += mu
        if run >= target:
            raise InvariantsFailed(
                f"partial increment sum reaches {run} >= {target} at level {n}")
        partials.append(run)
    return DivergenceCertificate(
        w.params.kappa, tuple(increments), tuple(partials), target,
        _windows(w, len(lv)), "Cauchy-with-kappa-obstruction", w.demo)


def _windows(w: WitnessFamily, top: int) -> tuple[WindowRecord, ...]:
    """The windows [a_n! + min H_n, a_n! + max H_n] of levels 1..top-1,
    each checked at least kappa-filled."""
    windows = []
    for rec in w.levels[1:top]:
        start = rec.modulus + rec.residues[0]
        fill = rec.block.count_range(start, start + rec.span)
        wrec = WindowRecord(rec.index, start, rec.span, fill)
        if wrec.ratio < w.params.kappa:
            raise InvariantsFailed(f"window at level {rec.index} is under-filled")
        windows.append(wrec)
    return tuple(windows)


def banach_gap_certificate(w: WitnessFamily, horizon: int = 10 ** 6,
                           probes: int = 64) -> GapCertificate:
    """For kappa = 1/2: the union A_{depth-1} of the blocks up to the family
    depth has prefix densities at most 1/4 (checked at every breakpoint
    below the horizon and at probes up to the top modulus) while its level
    windows are at least half filled, so no Banach density exists for it
    over the certified range."""
    if w.params.kappa != Fraction(1, 2):
        raise KappaMismatch(
            f"the gap certificate is specific to kappa = 1/2, got {w.params.kappa}")
    if w.depth < 1:
        raise InsufficientPrefix(f"the gap certificate needs depth >= 1, got {w.depth}")
    _require_invariants(w, horizon)
    bound = stage_density(w, w.depth - 1)
    if bound > Fraction(1, 4):
        raise InvariantsFailed("increment sum exceeds 1/4")
    top = w.levels[-1].modulus  # build_witness makes levels 0..depth+1
    limit = min(horizon, top)
    checks = []
    for m, c in _prefix_counts(w.stages[w.depth - 1], limit,
                               _log_probes(max(2, limit), top, probes)):
        if 4 * c > m:
            raise InvariantsFailed(f"prefix ratio {Fraction(c, m)} exceeds 1/4 at {m}")
        checks.append((m, c, Fraction(c, m)))
    return GapCertificate(
        w.params.kappa, w.depth, horizon, bound, tuple(checks),
        _windows(w, w.depth + 1), "no-banach-density-over-certified-range", w.demo)


# ---------------------------------------------------------------------------
# the Cauchy sequence

def increment_tail_bound(p: WitnessParams, start: int) -> Fraction:
    """Certified upper bound on the tail sum of m/a_m! from the given index.

    Within the schedule the terms are exact. Beyond it, any strictly
    increasing continuation satisfies a_j >= a_L + (j - L), which gives
    a_j! >= (a_L + 1)! (a_L + 2)^(j-L-1) and a closed geometric bound.

    The sum is formed over integers and reduced once: the schedule's terms
    as m (a! / a_m!) over the common denominator a! of the largest entry a
    among them (a_L! on a valid schedule), and the continuation, with
    b = max(L, start - 1) and c = a_L + (b - L), as
    (b (c + 1) (c + 2) + (c + 2)^2) / ((c + 1)^2 (c + 1)!), which is
    (b / (1 - x) + 1 / (1 - x)^2) / (c + 1)! at x = 1 / (c + 2).
    """
    last = len(p.schedule) - 1
    terms = [(m, p.schedule[m]) for m in range(start, last + 1)]
    top = max((a for _, a in terms), default=0)
    head = sum(m * math.perm(top, top - a) for m, a in terms)
    base = max(last, start - 1)
    c = p.schedule[last] + (base - last)
    cont_num = base * (c + 1) * (c + 2) + (c + 2) ** 2
    cont_den = (c + 1) ** 2 * math.factorial(c + 1)
    f_top = math.factorial(top)
    return Fraction(head * cont_den + cont_num * f_top, f_top * cont_den)


def witness_sequence(w: WitnessFamily) -> SetSequence:
    """The stages as a rule-backed sequence with the certified increment
    tail bound, ready for Cauchy profiling under the Banach upper density."""
    p = w.params

    def rule(n: int) -> NatSet:
        if n < len(w.stages):
            return w.stages[n]
        if n + 2 <= len(p.schedule):
            return build_witness(p, n, w.demo).stages[n]
        raise InsufficientPrefix(
            f"stage {n} needs a longer schedule than {len(p.schedule)}")

    return SetSequence(
        prefix=w.stages, rule=rule, monotone=True,
        tail_bound=lambda i: increment_tail_bound(p, i + 2),
        label=f"witness-kappa-{p.kappa}")
