"""Upper densities and companion submeasures on structured sets.

Four functionals are implemented:

- upper asymptotic density: limsup of |A ∩ [1,n]| / n;
- upper Banach density: lim over n of the max window ratio
  max_k |A ∩ [k, k+n)| / n (the limit exists by subadditivity and equals the
  infimum, so doubling-length profiles are nonincreasing);
- the cover density: inf over covers of A by finite unions of infinite
  arithmetic progressions of the upper asymptotic density of the cover;
- weighted upper density for a divergent weight sequence f: limsup of
  (Σ_{i∈A, i≤n} f(i)) / (Σ_{i≤n} f(i)).

The evaluation strategy is closed-form per backend wherever the structure
pins the value down exactly:

- finite sets: everything is 0;
- eventually periodic sets (PeriodicSet, APUnionSet): all four functionals
  equal the natural density |R|/m (windows of length qm hold exactly q|R|
  rule elements; the set covers itself; slowly varying weights average to the
  same limit);
- dyadic block sets: prefix ratios have their local maxima exactly at slice
  ends, which gives a rational closed form for cyclic fills; unbounded slices
  are runs of consecutive members, which force both the window and cover
  densities to 1, while bounded-slice vanishing fills force them to 0;
- horizon sets: no tail, no theorem. Results are observational point
  estimates with profiles, never certificates. The cover density is refused
  outright because finite evidence bounds no cover.

The σ-additive measures counting, harmonic and geometric have one
evaluator, _additive(kind, A, lo) = mu(A ∖ lo): the functionals counting and
geometric are its value at lo = 0, and exhaust reads the three lscsm tails
and norms from it, so `eval` and `dist` on a measure execute no exhaust.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .config import Config, DEFAULT_CONFIG
from .exceptions import ModulusBudgetExceeded, NotErdosUlam, UnsupportedBackend
from .natset import (
    APUnionSet,
    DyadicBlockSet,
    FiniteSet,
    HorizonSet,
    NatSet,
    PeriodicSet,
    _DIGITS_MAX,
    _DYADIC_EXP_MAX,
    _signed_exceptions,
    as_ap_union,
    boolean_op,
    complement,
    drop_below,
    finite_part,
    transform,
)
from .reports import AxiomReport, CheckRecord
from .values import ExtValue, bracket, exact, infinite, observational, surely_eq, surely_lt

__all__ = [
    "DensityEstimate",
    "Profile",
    "DomVerdict",
    "WeightFunction",
    "eventual_density",
    "upper_asymptotic",
    "lower_asymptotic",
    "upper_banach",
    "upper_buck",
    "weighted_upper",
    "weighted_prefix_profile",
    "lower_dual",
    "dom_membership",
    "prefix_profile",
    "window_profile",
    "counting_measure",
    "geometric_measure",
    "get_weight",
    "validate_weight",
    "check_upper_density_axioms",
    "check_submeasure_axioms",
    "FunctionalDescriptor",
    "get_functional",
    "FUNCTIONAL_NAMES",
    "LSCSM_NAMES",
]


@dataclass(frozen=True)
class Profile:
    kind: str  # "prefix" | "window-max" | "weighted-prefix"
    entries: tuple[tuple[int, Fraction], ...]
    method: str  # "exact" | "exact-sweep" | "candidate-probe" | "observational"


@dataclass(frozen=True)
class DensityEstimate:
    functional: str
    value: ExtValue
    method: str
    profile: Optional[Profile] = None


# ---------------------------------------------------------------------------
# eventual-density core


def eventual_density(a: NatSet) -> Optional[Fraction]:
    """Exact natural density when the backend structure guarantees it exists."""
    if isinstance(a, FiniteSet):
        return Fraction(0)
    if isinstance(a, PeriodicSet):
        return a.density()
    if isinstance(a, APUnionSet):
        return a.density()
    return None


# ---------------------------------------------------------------------------
# block closed forms


def _alpha_block_phase_limits(fill, e: int) -> list[Fraction]:
    """Eventual slice-end ratio limits per cycle phase for phi_alpha.

    With Q = 2^{e+1} and g_q = (1+c_q)^{e+1} - 1, the weight of earlier
    blocks forms a Q-geometric series with cycle coefficients:

        G_p = (sum_{s=1..P} g_{(p-s) mod P} Q^{-s}) * Q^P / (Q^P - 1)
        limit_p = (G_p + g_p) / (1 + c_p)^{e+1}

    e = 0 recovers the prefix-density phase formula. A phase with an empty
    slice yields the ratio just before its block, which never exceeds a
    nonempty neighbour's limit because (1+c)^{e+1} <= Q.
    """
    P = len(fill.cycle)
    Q = Fraction(2 ** (e + 1))
    g = [(1 + c) ** (e + 1) - 1 for c in fill.cycle]
    scale = Q ** P / (Q ** P - 1)
    out = []
    for p in range(P):
        G = sum((g[(p - s) % P] / Q ** s for s in range(1, P + 1)), Fraction(0)) * scale
        out.append((G + g[p]) / (1 + fill.cycle[p]) ** (e + 1))
    return out


def _block_asymptotic(b: DyadicBlockSet) -> tuple[Fraction, Fraction]:
    """(limsup, liminf) of prefix ratios for any supported fill structure.

    Within block n the ratio C(x)/x rises while x crosses the member slice
    and falls across the gap, so local maxima sit at slice ends and local
    minima at block starts 2^{n+1}. For a cyclic fill the slice-end ratios of
    phase p tend to the e = 0 phase limit (L_p + c_p)/(1 + c_p), with L_p the
    prefix count below 2^n over 2^n; the block-start ratios tend to
    (L_p + c_p)/2, which is that limit times (1 + c_p)/2. Rounding errors
    total O(n), which vanishes against 2^n.
    """
    if b.fill.structure == "cycle":
        lim = _alpha_block_phase_limits(b.fill, 0)
        return max(lim), min(l * (1 + c) / 2 for l, c in zip(lim, b.fill.cycle))
    # vanishing fill: fills below eps beyond some block keep every later
    # prefix ratio below 2 eps, so both limits are 0
    return Fraction(0), Fraction(0)


# ---------------------------------------------------------------------------
# profiles


def _default_prefix_lengths(a: NatSet, cap: int) -> list[int]:
    if isinstance(a, HorizonSet):
        cap = min(cap, a.horizon - 1)
    out = []
    n = 1
    while n <= cap:
        out.append(n)
        n *= 2
    if out and out[-1] != cap and cap >= 1:
        out.append(cap)
    return out


def prefix_profile(a: NatSet, config: Config = DEFAULT_CONFIG,
                   lengths: Optional[Sequence[int]] = None) -> Profile:
    """Exact prefix ratios |A ∩ [1,n]| / n at the requested lengths."""
    ns = (list(lengths) if lengths is not None
          else _default_prefix_lengths(a, config.prefix_horizon))
    entries = tuple((n, Fraction(a.count_range(1, n + 1), n)) for n in ns)
    return Profile("prefix", entries, "exact")


def _max_window_in_elements(elems: Sequence[int], n: int,
                            hard_end: Optional[int] = None) -> int:
    """Max #elements in any length-n window; windows must end by hard_end."""
    best = 0
    j = 0
    for i, e in enumerate(elems):
        if hard_end is not None and e + n > hard_end:
            break
        while j < len(elems) and elems[j] < e + n:
            j += 1
        best = max(best, j - i)
    if hard_end is not None and elems:
        k = hard_end - n
        cnt = sum(1 for e in elems if k <= e < hard_end)
        best = max(best, cnt)
    return best


def _window_max(a: NatSet, n: int, config: Config) -> tuple[int, bool]:
    """(max_k |A ∩ [k, k+n)|, exact?) over all admissible window starts."""
    if isinstance(a, FiniteSet):
        return _max_window_in_elements(a.elements, n), True
    if isinstance(a, HorizonSet):
        elems = a.elements_in(0, a.horizon)
        return _max_window_in_elements(elems, n, hard_end=a.horizon), True
    if isinstance(a, PeriodicSet):
        sweep = a.threshold + a.modulus
        if sweep <= config.window_sweep_budget:
            return max(a.count_range(k, k + n) for k in range(sweep)), True
        ks = list(range(0, min(a.threshold, 64))) + [a.threshold + j for j in range(64)]
        return max(a.count_range(k, k + n) for k in ks), False
    if isinstance(a, APUnionSet):
        l = a.period(config.window_sweep_budget)
        t0 = a.threshold
        if l is not None and t0 + l <= 4 * config.window_sweep_budget:
            return max(a.count_range(k, k + n) for k in range(t0 + l)), True
        cands = {0, t0} | {t.min_element for t in a.terms} | set(a.extras)
        return max(a.count_range(k, k + n) for k in sorted(cands)), False
    if isinstance(a, DyadicBlockSet):
        if a.slices_unbounded():
            # find a slice at least n long: the window inside it is all members
            blk = a.fill.threshold
            for m in range(blk, blk + 4 * max(len(a.fill.cycle), 1) + n.bit_length() + 64):
                if a.slice_len(m) >= n:
                    return n, True
        span = max(4 * n, 64)
        elems = a.elements_in(0, span)
        return _max_window_in_elements(elems, n), False
    raise UnsupportedBackend(f"window scan not supported for backend {a.kind}")


def window_profile(a: NatSet, config: Config = DEFAULT_CONFIG,
                   lengths: Optional[Sequence[int]] = None) -> Profile:
    """Max window ratios max_k |A ∩ [k,k+n)| / n at the requested lengths.

    Doubling the length never increases the ratio (subadditivity of the
    window maximum), so power-of-two profiles are nonincreasing whenever the
    scan is exact.
    """
    if lengths is None:
        cap = config.window_max
        if isinstance(a, HorizonSet):
            cap = min(cap, a.horizon // 2)
        ns, n = [], 1
        while n <= cap:
            ns.append(n)
            n *= 2
    else:
        ns = list(lengths)
    entries = []
    all_exact = True
    for n in ns:
        cnt, is_exact = _window_max(a, n, config)
        all_exact = all_exact and is_exact
        entries.append((n, Fraction(cnt, n)))
    return Profile("window-max", tuple(entries),
                   "exact-sweep" if all_exact else "candidate-probe")


# ---------------------------------------------------------------------------
# the four functionals


def _asymptotic(a: NatSet, config: Config, name: str, side: int) -> DensityEstimate:
    """limsup (side 0) or liminf (side 1) of the prefix ratios |A ∩ [1,n]| / n."""
    d = eventual_density(a)
    if d is not None:
        return DensityEstimate(name, exact(d),
                               "finite" if isinstance(a, FiniteSet) else "eventual-period")
    if isinstance(a, DyadicBlockSet):
        return DensityEstimate(name, exact(_block_asymptotic(a)[side]), "block-fill")
    if isinstance(a, HorizonSet):
        prof = prefix_profile(a, config)
        val = prof.entries[-1][1] if prof.entries else Fraction(0)
        return DensityEstimate(
            name, observational(val, "prefix ratio at the evidence horizon; no tail information"),
            "observational", prof)
    raise UnsupportedBackend(f"{('upper', 'lower')[side]} asymptotic density undefined "
                             f"for backend {a.kind}")


def upper_asymptotic(a: NatSet, config: Config = DEFAULT_CONFIG) -> DensityEstimate:
    return _asymptotic(a, config, "d-star", 0)


def lower_asymptotic(a: NatSet, config: Config = DEFAULT_CONFIG) -> DensityEstimate:
    """liminf of prefix ratios (the lower dual of d-star under complement)."""
    return _asymptotic(a, config, "d-star-lower", 1)


def upper_banach(a: NatSet, config: Config = DEFAULT_CONFIG) -> DensityEstimate:
    name = "bd-star"
    d = eventual_density(a)
    if d is not None:
        # beyond the exceptional prefix every window of length q*m holds
        # exactly q rule elements per residue, so the window limit is the
        # natural density
        method = "finite" if isinstance(a, FiniteSet) else "eventual-period"
        return DensityEstimate(name, exact(d), method)
    if isinstance(a, DyadicBlockSet):
        if a.slices_unbounded():
            val, why = Fraction(1), "unbounded runs of consecutive members"
        else:
            val, why = Fraction(0), "bounded clusters separated by doubling gaps"
        return DensityEstimate(name, exact(val), why)
    if isinstance(a, HorizonSet):
        prof = window_profile(a, config)
        val = prof.entries[-1][1] if prof.entries else Fraction(0)
        return DensityEstimate(
            name,
            observational(val, "max window ratio within the horizon; no tail information"),
            "observational", prof)
    raise UnsupportedBackend(f"upper Banach density undefined for backend {a.kind}")


def upper_buck(a: NatSet, config: Config = DEFAULT_CONFIG) -> DensityEstimate:
    name = "buck"
    if isinstance(a, FiniteSet):
        return DensityEstimate(
            name, exact(0),
            "each point sits on a progression of arbitrarily large modulus")
    d = eventual_density(a)
    if d is not None:
        # the rule part covers itself; sparse progressions absorb the finite
        # exceptions, so the infimum meets the monotone lower bound d
        return DensityEstimate(name, exact(d), "self-cover")
    if isinstance(a, DyadicBlockSet):
        if a.slices_unbounded():
            # a cover that is periodic mod M swallows any run of length M
            # whole, so unbounded runs force every cover to density 1
            return DensityEstimate(name, exact(1), "runs exhaust every residue system")
        return DensityEstimate(
            name, exact(0),
            "clusters of bounded size embed in unions of progressions with "
            "vanishing total density")
    if isinstance(a, HorizonSet):
        raise UnsupportedBackend(
            "cover density needs tail structure; horizon evidence bounds no cover")
    raise UnsupportedBackend(f"cover density undefined for backend {a.kind}")


# ---------------------------------------------------------------------------
# weighted upper density


@dataclass(frozen=True)
class WeightFunction:
    """A weight sequence f with its declared asymptotic regime.

    The flags assert, respectively: f(i) >= 0 everywhere; f(i) > 0 from some
    point on; partial sums F(n) diverge; f(n)/F(n) -> 0; and f varies slowly
    enough that weighted densities of eventually periodic sets equal their
    natural densities (true for constant and 1/(i+1) weights, where the
    weighted count over a residue class tracks |R|/m times the total weight).
    """

    name: str
    nonnegative: bool
    eventually_positive: bool
    divergent_partials: bool
    vanishing_ratio: bool
    slowly_varying: bool
    func: Callable[[int], Fraction] = None  # type: ignore[assignment]

    def __eq__(self, other):
        return isinstance(other, WeightFunction) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


_WEIGHTS = {
    "constant": WeightFunction("constant", True, True, True, True, True,
                               lambda i: Fraction(1)),
    "harmonic": WeightFunction("harmonic", True, True, True, True, True,
                               lambda i: Fraction(1, i + 1)),
    # deliberately invalid examples, kept for the validator tests
    "doubling": WeightFunction("doubling", True, True, True, False, False,
                               lambda i: Fraction(2 ** min(i, 512))),
    "halving": WeightFunction("halving", True, True, False, True, False,
                              lambda i: Fraction(1, 2 ** min(i, 512))),
}


def get_weight(name: str) -> WeightFunction:
    try:
        return _WEIGHTS[name]
    except KeyError:
        raise KeyError(f"unknown weight {name!r}; have {sorted(_WEIGHTS)}") from None


def validate_weight(w: WeightFunction) -> AxiomReport:
    """Checks the divergent-weight axioms: nonnegativity, eventual positivity,
    divergent partial sums, vanishing term-to-sum ratio, finite rational values."""
    probes = list(range(0, 64)) + [255, 1024, 4095]
    records = []

    vals = {i: w.func(i) for i in probes}
    records.append(CheckRecord(
        "nonnegative", "pass" if w.nonnegative and all(v >= 0 for v in vals.values()) else "fail",
        "f(i) >= 0 on probe points and by declaration"))
    records.append(CheckRecord(
        "eventually-positive",
        "pass" if w.eventually_positive and all(vals[i] > 0 for i in probes[8:]) else "fail",
        "f(i) > 0 from some index on"))

    # growth probe for divergence: F(4095) against F(63)
    f63 = sum((w.func(i) for i in range(64)), Fraction(0))
    f4095 = f63 + sum((w.func(i) for i in range(64, 4096)), Fraction(0))
    growth_seen = f4095 > f63 * Fraction(11, 10) or not w.divergent_partials
    records.append(CheckRecord(
        "divergent-partials",
        "pass" if w.divergent_partials and growth_seen else "fail",
        "partial sums declared divergent and still growing at the probe horizon"))

    r63 = w.func(63) / f63 if f63 > 0 else Fraction(1)
    r4095 = w.func(4095) / f4095 if f4095 > 0 else Fraction(1)
    ratio_ok = w.vanishing_ratio and (r4095 < r63 or r4095 == 0)
    records.append(CheckRecord(
        "vanishing-ratio", "pass" if ratio_ok else "fail",
        "f(n)/F(n) declared null and decreasing across probe horizons"))

    records.append(CheckRecord(
        "finite-rational", "pass" if all(isinstance(v, Fraction) for v in vals.values()) else "fail",
        "weights are exact rationals"))
    return AxiomReport(f"weight {w.name}", tuple(records))


@cache
def _registered_report(name: str) -> AxiomReport:
    """validate_weight of a registered weight, once per process: it sums
    4,096 exact weights, and no Config field changes its report."""
    return validate_weight(_WEIGHTS[name])


def _require_erdos_ulam(w: WeightFunction):
    # a weight compares equal to a registered one by name alone, so only
    # the registry's own object reads the kept report
    registered = _WEIGHTS.get(w.name) is w
    report = _registered_report(w.name) if registered else validate_weight(w)
    if not report.passed:
        bad = ", ".join(r.name for r in report.failures)
        raise NotErdosUlam(f"weight {w.name} fails: {bad}")


def weighted_prefix_profile(a: NatSet, w: WeightFunction,
                            config: Config = DEFAULT_CONFIG,
                            lengths: Optional[Sequence[int]] = None) -> Profile:
    """Observational weighted prefix ratios, float-accumulated.

    Exact rational accumulation is intentionally avoided here: denominators
    of partial harmonic sums grow exponentially and the profile is evidence,
    not a certificate. The default lengths stop at the smaller of
    ``config.prefix_horizon`` and ``config.weight_horizon``.
    """
    horizon = min(config.prefix_horizon, config.weight_horizon)
    ns = list(lengths) if lengths is not None else _default_prefix_lengths(a, horizon)
    cap = max(ns) + 1
    num = 0.0
    den = 0.0
    marks = sorted(set(ns))
    entries = []
    mi = 0
    for i in range(cap):
        fi = float(w.func(i))
        den += fi
        if a.member(i):
            num += fi
        while mi < len(marks) and i == marks[mi]:
            entries.append((marks[mi], Fraction(num / den if den else 0.0).limit_denominator(10**12)))
            mi += 1
    return Profile("weighted-prefix", tuple(entries), "observational")


def weighted_upper(a: NatSet, weight: WeightFunction | str = "harmonic",
                   config: Config = DEFAULT_CONFIG) -> DensityEstimate:
    w = get_weight(weight) if isinstance(weight, str) else weight
    _require_erdos_ulam(w)
    name = f"weighted:f={w.name}"
    if w.name == "constant":
        inner = upper_asymptotic(a, config)
        return DensityEstimate(name, inner.value, inner.method, inner.profile)
    if isinstance(a, FiniteSet):
        return DensityEstimate(name, exact(0), "finite weighted mass against divergent totals")
    d = eventual_density(a)
    if d is not None and w.slowly_varying:
        return DensityEstimate(name, exact(d), "slowly-varying-weights")
    if isinstance(a, (HorizonSet, DyadicBlockSet, PeriodicSet, APUnionSet)):
        prof = weighted_prefix_profile(a, w, config)
        val = prof.entries[-1][1] if prof.entries else Fraction(0)
        return DensityEstimate(
            name,
            observational(val, "weighted prefix ratio at the evidence horizon"),
            "observational", prof)
    raise UnsupportedBackend(f"weighted density undefined for backend {a.kind}")


# ---------------------------------------------------------------------------
# duals and dom membership


def _evaluate_upper(functional: str, a: NatSet, config: Config) -> ExtValue:
    desc = get_functional(functional)
    if desc.kind != "upper-density":
        raise KeyError(f"unknown upper density {functional!r}")
    return desc.evaluate(a, config)


def lower_dual(a: NatSet, functional: str = "d-star",
               config: Config = DEFAULT_CONFIG) -> DensityEstimate:
    """The dual lower density: 1 - mu*(complement of A)."""
    name = f"{functional}-lower"
    if isinstance(a, DyadicBlockSet):
        # the complement is not a prefix-fill block set, but its densities
        # are still pinned down by the fill structure
        if functional == "d-star":
            return lower_asymptotic(a, config)
        if functional in ("bd-star", "buck"):
            gaps_unbounded = (a.fill.structure == "vanishing"
                              or any(v < 1 for v in a.fill.cycle))
            val = Fraction(0) if gaps_unbounded else Fraction(1)
            return DensityEstimate(name, exact(val),
                                   "complement run structure")
        raise UnsupportedBackend(f"no dual evaluation for {functional} on blocks")
    comp = complement(a, config)
    upper = _evaluate_upper(functional, comp, config)
    if upper.status == "exact":
        return DensityEstimate(name, exact(1 - upper.value), "dual-of-complement")
    if upper.status == "bracket":
        lo = None if upper.upper is None else 1 - upper.upper
        hi = None if upper.lower is None else 1 - upper.lower
        return DensityEstimate(name, bracket(lo, hi, upper.note), "dual-of-complement")
    return DensityEstimate(
        name,
        observational(1 - upper.value, upper.note or "dual of an observational value"),
        "observational")


@dataclass(frozen=True)
class DomVerdict:
    functional: str
    upper: ExtValue
    lower: ExtValue
    verdict: str  # "in" | "out" | "unknown"
    note: str = ""


def dom_membership(a: NatSet, functional: str = "d-star",
                   config: Config = DEFAULT_CONFIG,
                   bounds: Optional[tuple[ExtValue, ExtValue]] = None) -> DomVerdict:
    """Whether upper and dual lower values agree (measurability for mu).

    `bounds`, when given, supplies externally certified (upper, lower)
    estimates (for sets whose functionals this module cannot evaluate); the
    verdict logic is the same either way and never concludes from
    observational evidence.
    """
    if bounds is not None:
        up, lo = bounds
    else:
        up = _evaluate_upper(functional, a, config)
        lo = lower_dual(a, functional, config).value
    if surely_eq(up, lo):
        return DomVerdict(functional, up, lo, "in", "upper and lower values coincide exactly")
    if surely_lt(lo, up):
        return DomVerdict(functional, up, lo, "out",
                          "certified gap between lower and upper values")
    note = "evidence is not certified" if not (up.is_certified and lo.is_certified) \
        else "certificates overlap without pinning equality"
    return DomVerdict(functional, up, lo, "unknown", note)


# ---------------------------------------------------------------------------
# the σ-additive measures: counting, harmonic and geometric


# A geometric bracket of an infinite set reads the positions below the cap
# and adds their residual mass 2^-cap; an exact periodic series needs its
# moduli, its threshold or term starts, and the cut below the cap too.
_GEO_CAP = 4096

_HORIZON_NOTES = {"counting": "count within the horizon; tail unknown",
                  "harmonic": "membership beyond the horizon is unknown"}


def _geo_signed(entries: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """sum of sign * 2^-(x+1) over the (x, sign) entries, as one integer
    numerator over 2^(max x + 1)."""
    entries = list(entries)
    bits = max((x for x, _ in entries), default=-1) + 1
    return sum(sign << (bits - x - 1) for x, sign in entries), 1 << bits


def _mass(kind: str, xs: Sequence[int]) -> Fraction:
    """The measure of the finite set xs under kind (see _additive), exactly."""
    if kind == "counting":
        return Fraction(len(xs))
    if kind == "harmonic":
        return sum((Fraction(1, x + 1) for x in xs), Fraction(0))
    return Fraction(*_geo_signed((x, 1) for x in xs))


def _geo_below(a: NatSet, bound: int, lo: int, reason: str) -> ExtValue:
    """The exact geometric sum over the members of a in [lo, bound),
    bracketed up to the residual mass 2^-bound of every position from bound
    on."""
    p = _mass("geometric", a.elements_in(lo, bound) if lo < bound else ())
    return bracket(p, p + Fraction(1, 1 << bound), reason)


def _additive(kind: str, a: NatSet, lo: int = 0) -> ExtValue:
    """mu(A ∖ lo) for the measure mu named by kind: counting, harmonic
    (1/(x+1) per member x) or geometric (2^-(x+1) per member x). A set
    natset.finite_part finds finite is summed exactly, geometric sums while
    their members lie below the grammar's own bound _DYADIC_EXP_MAX (2^14000
    has 4,215 digits, which still print); past it only the members below it
    are read, so a member near 10^12 builds no 10^12-bit sum."""
    fin = finite_part(a)
    if fin is not None:
        xs = fin.elements[bisect_left(fin.elements, lo):]
        if kind != "geometric" or not xs or xs[-1] < _DYADIC_EXP_MAX:
            return exact(_mass(kind, xs))
        return _geo_below(fin, _DYADIC_EXP_MAX, lo,
                          "members beyond the exponent bound; tail bounded by residual mass")
    if isinstance(a, HorizonSet):
        if kind == "geometric":
            return _geo_below(a, min(a.horizon, _GEO_CAP), lo, "tail bounded by residual mass")
        lo = min(lo, a.horizon)
        seen = a.count_range(lo, a.horizon) if kind == "counting" else \
            _mass(kind, a.elements_in(lo, a.horizon))
        return bracket(seen, None, _HORIZON_NOTES[kind])
    if isinstance(a, (PeriodicSet, APUnionSet)):
        if kind != "geometric":
            return infinite()  # a nonempty rule part recurs in every period
        reach = (("moduli", a.modulus), ("threshold", a.threshold)) \
            if isinstance(a, PeriodicSet) else \
            (("moduli", max((t.modulus for t in a.terms), default=0)),
             ("term starts", max((t.min_element for t in a.terms), default=0)))
        past = [name for name, x in (*reach, ("cut", lo)) if x > _GEO_CAP]
        if past:
            return _geo_below(a, _GEO_CAP, lo, " and ".join(past) + " beyond the "
                              "exponent budget; tail bounded by residual mass")
        # exceptions past 4 bits a digit (2^17200 > 10^4300) give a value that
        # cannot print; a bracket there spares an extra near 10^12 its sum
        if a.threshold > 4 * _DIGITS_MAX:
            return _geo_below(a, _GEO_CAP, lo,
                              "exceptions beyond the exponent bound; tail bounded by residual mass")
        # exact: each residue class r (mod M) from its first element x0
        # contributes 2^-(x0+1) / (1 - 2^-M); inclusion-exclusion handles
        # overlaps between terms. The entries of one modulus add up as one
        # shifted integer, and so do the exceptions
        u = drop_below(as_ap_union(a), lo)
        firsts: dict[int, list[tuple[int, int]]] = {}
        for M, c, mn, sign in u._intersections:
            x0 = c if c >= mn else c + M * (-((mn - c) // -M))
            firsts.setdefault(M, []).append((x0, sign))
        total = Fraction(*_geo_signed(_signed_exceptions(u, 0, u.threshold)))
        for M, entries in firsts.items():
            num, den = _geo_signed(entries)
            total += Fraction(num << M, den * ((1 << M) - 1))
        return exact(total)
    if isinstance(a, DyadicBlockSet):
        if kind == "geometric":
            return _geo_below(a, _GEO_CAP, lo, "tail bounded by residual mass")
        if a.fill.structure == "cycle" or (kind == "counting"
                                           and a.fill.slice_growth == "unbounded"):
            return infinite()  # a positive cycle value or growing slices recur forever
        if kind == "counting":
            return bracket(a.count_range(lo, lo + (1 << 16)), None,
                           "vanishing fill: tail slice occupancy undetermined")
        if a.fill.slice_growth == "unbounded":
            return bracket(0, None, "tail divergence undetermined for vanishing fill")
        # at most B members per block at height 2^j: the tail beyond block J
        # sums below 2B 2^-J; B combines the scanned maximum with the
        # declared boundedness of the slice lengths
        j_hi = max(lo, 1).bit_length() + 19
        b = max(a.slice_len(j) for j in range(j_hi + 17)) + 1
        partial = _mass(kind, a.elements_in(lo, 1 << j_hi))
        return bracket(partial, partial + Fraction(2 * b, 2 ** j_hi),
                       "bounded slices; geometric tail bound")
    raise UnsupportedBackend(f"{kind} measure undefined for backend {a.kind}")


def counting_measure(a: NatSet, config: Config = DEFAULT_CONFIG) -> ExtValue:
    """The number of members of A; infinite unless A is finite."""
    return _additive("counting", a)


def geometric_measure(a: NatSet, config: Config = DEFAULT_CONFIG) -> ExtValue:
    """nu(A) = sum over A of 2^-(a+1); a genuine finite measure on all of P(omega)."""
    return _additive("geometric", a)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class FunctionalDescriptor:
    name: str
    kind: str  # "upper-density" | "measure"
    evaluate: Callable[[NatSet, Config], ExtValue]


def _weighted_eval(wname: str):
    def run(a: NatSet, config: Config) -> ExtValue:
        return weighted_upper(a, wname, config).value
    return run


FUNCTIONAL_NAMES = ("d-star", "bd-star", "buck", "weighted:f=harmonic",
                    "weighted:f=constant", "counting", "geometric")
# The names exhaust.get_lscsm resolves. They live here so the CLI's help can
# list them without loading exhaust; exhaust re-exports this tuple.
LSCSM_NAMES = ("phi-prefix", "psi-dyadic", "phi-alpha:a=<int>", "phi-infty:eps=<rat>",
               "phi-infty-trunc:a=<int>", "counting", "harmonic", "geometric",
               "weighted:f=<name>")


_FUNCTIONALS = {
    "d-star": FunctionalDescriptor("d-star", "upper-density",
                                   lambda a, c: upper_asymptotic(a, c).value),
    "bd-star": FunctionalDescriptor("bd-star", "upper-density",
                                    lambda a, c: upper_banach(a, c).value),
    "buck": FunctionalDescriptor("buck", "upper-density", lambda a, c: upper_buck(a, c).value),
    "counting": FunctionalDescriptor("counting", "measure", counting_measure),
    "geometric": FunctionalDescriptor("geometric", "measure", geometric_measure),
}
_FUNCTIONALS["geo"] = _FUNCTIONALS["geometric"]


def get_functional(name: str) -> FunctionalDescriptor:
    """The functional a name denotes: a name of FUNCTIONAL_NAMES, `geo`, or
    `weighted:f=<weight>` for a registered weight. Nothing else is read: no
    prefix, no default weight."""
    desc = _FUNCTIONALS.get(name)
    if desc is not None:
        return desc
    family, _, wname = name.partition(":f=")
    if family == "weighted" and wname in _WEIGHTS:
        return FunctionalDescriptor(name, "upper-density", _weighted_eval(wname))
    raise KeyError(f"unknown functional {name!r}; have {list(FUNCTIONAL_NAMES)}")


# ---------------------------------------------------------------------------
# axiom checkers


def _try_exact(fn, *args) -> tuple[Optional[ExtValue], str]:
    try:
        v = fn(*args)
    except UnsupportedBackend as e:
        return None, f"unsupported: {e}"
    except NotErdosUlam as e:
        return None, f"invalid weight: {e}"
    if not v.is_certified:
        return None, "value is observational"
    return v, ""


# An evaluation as the batteries see it: (value, "") when the value can be
# judged, (None, why) when it cannot.
Judged = tuple[Optional[ExtValue], str]


def _value_record(name: str, found: Judged, target: int, detail: str) -> CheckRecord:
    """Pass when the value is exactly `target`; skip when it cannot be judged."""
    v, why = found
    if v is None:
        return CheckRecord(name, "skip", why)
    return CheckRecord(name, "pass" if surely_eq(v, exact(target)) else "fail",
                       detail, witness=v.value)


def _union_pair_records(sets: Sequence[NatSet], at: Callable[[int], Judged],
                        ev: Callable[[NatSet], Judged], config: Config,
                        details: tuple[str, str] = ("value never drops under union",
                                                    "union value at most the sum"),
                        ) -> Iterator[CheckRecord]:
    """monotone[i,j] and subadditive[i,j] for every pair i < j. Part i is read
    through `at(i)` (ev of sets[i], computed once per battery call), and only
    once a union with it has been built; a pair whose union fails or whose
    values cannot be judged gets one skip. A record fails only when the
    values certify the violation: the union surely below a part, or both
    parts bounded above and the union infinite or bounded below past the
    sum of their upper bounds."""
    for i, j in combinations(range(len(sets)), 2):
        try:
            u = boolean_op(sets[i], sets[j], "union", config)
        except Exception as e:
            yield CheckRecord(f"monotone[{i},{j}]", "skip", f"union failed: {e}")
            continue
        (va, wa), (vb, wb), (vu, wu) = at(i), at(j), ev(u)
        if va is None or vb is None or vu is None:
            yield CheckRecord(f"monotone[{i},{j}]", "skip", wa or wb or wu)
            continue
        yield CheckRecord(f"monotone[{i},{j}]",
                          "fail" if surely_lt(vu, va) or surely_lt(vu, vb) else "pass",
                          details[0])
        # an infinite part has no upper bound, so it refutes nothing
        refuted = va.upper is not None and vb.upper is not None and (
            vu.status == "infinite" or (vu.lower is not None and vu.lower > va.upper + vb.upper))
        yield CheckRecord(f"subadditive[{i},{j}]", "fail" if refuted else "pass", details[1])


def check_upper_density_axioms(functional: str, sets: Sequence[NatSet],
                               config: Config = DEFAULT_CONFIG,
                               shifts: Sequence[int] = (7,),
                               dilations: Sequence[int] = (3,)) -> AxiomReport:
    """Verifies the upper-density axioms on a concrete family of sets:
    normalization, vanishing on finite sets, monotonicity, subadditivity,
    shift invariance for each given shift, and the dilation law
    mu*(k A) = mu*(A)/k for each given factor."""
    desc = get_functional(functional)
    ev = lambda s: _try_exact(desc.evaluate, s, config)
    at = cache(lambda i: ev(sets[i]))
    records = [
        _value_record("normalization", ev(PeriodicSet(1, (0,))), 1, "value on the full set"),
        _value_record("finite-null", ev(FiniteSet(tuple(range(0, 40, 3)))), 0,
                      "value on a finite probe set"),
        *_union_pair_records(sets, at, ev, config),
    ]
    laws = [("shift", h) for h in shifts] + [("dilate", k) for k in dilations]
    for i, a in enumerate(sets):
        va, wa = at(i)
        if va is None:
            records.append(CheckRecord(f"shift-invariant[{i}]", "skip", wa))
            continue
        for kind, x in laws:
            name = f"shift-invariant[{i},h={x}]" if kind == "shift" else f"dilation[{i},k={x}]"
            try:
                t = transform(a, kind, x)
            except (UnsupportedBackend, ModulusBudgetExceeded) as e:
                records.append(CheckRecord(name, "skip", str(e)))
                continue
            vt, wt = ev(t)
            if vt is None or (kind == "dilate" and va.value is None):
                records.append(CheckRecord(name, "skip", wt or "value not exact"))
                continue
            if kind == "shift":
                # like the union pairs: fail only on certified-different values
                ok = not (surely_lt(va, vt) or surely_lt(vt, va))
                detail = f"value unchanged by shifting {x}"
            else:
                ok = vt.status == "exact" and vt.value == va.value / x
                detail = f"value scales by 1/k under dilation by k={x}"
            records.append(CheckRecord(name, "pass" if ok else "fail", detail,
                                       witness=(va.value, vt.value)))

    return AxiomReport(f"upper density {desc.name}", tuple(records))


def check_submeasure_axioms(functional: str, sets: Sequence[NatSet],
                            config: Config = DEFAULT_CONFIG) -> AxiomReport:
    """Verifies submeasure axioms on a family: empty set maps to 0,
    monotonicity under union, and subadditivity."""
    desc = get_functional(functional)
    ev = lambda s: _try_exact(desc.evaluate, s, config)
    records = [_value_record("empty-null", ev(FiniteSet(())), 0, "value on the empty set"),
               *_union_pair_records(sets, cache(lambda i: ev(sets[i])), ev, config)]
    return AxiomReport(f"submeasure {desc.name}", tuple(records))
