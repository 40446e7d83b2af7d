"""Lower semicontinuous submeasures and their exhaustive norms.

A lower semicontinuous submeasure (lscsm) is determined by its values on
finite sets: phi(A) = sup_n phi(A ∩ n). The exhaustive norm is the mass left
at infinity, ||A|| = lim_n phi(A ∖ n), and Exh(phi) is the ideal of sets
with norm 0.

The shipped catalog:

- phi-prefix: sup_{k>=1} |A ∩ [1,k]| / k. Its norm equals the upper
  asymptotic density on every supported backend.
- psi-dyadic: sup_n |A ∩ I_n| / 2^n over dyadic blocks I_n = [2^n, 2^{n+1}).
  Its norm is the limsup of the block ratios.
- phi-alpha:a=e (integer e >= 0): polynomially weighted prefix ratios,
  sup_{k>=1} (sum of i^e over A ∩ [1,k]) / (sum of i^e over [1,k]).
  phi-prefix, phi-alpha:a=0 and weighted:f=constant are one functional, and
  one evaluator (the e = 0 case) serves all three names. Exponents are
  restricted to integers so every evaluation stays rational.
- phi-infty:eps=q: sum over a >= 0 of 2^-a * phi_{2^a}, evaluated to a
  certified bracket of width about eps.
- phi-infty-trunc:a=A: the finite partial sum over a <= A, exact.
- counting, harmonic (sum of 1/(i+1)), geometric (sum of 2^-(i+1)),
  weighted:f=<name> (weight-sequence prefix ratios).

All weighted prefix sums start at i = 1; the element 0 never carries weight
(it still counts for the counting, harmonic and geometric functionals, which
weigh membership rather than position ratios). The counting lscsm and
density.counting_measure decide finiteness by one rule, natset.finite_part.

Norms come from closed forms per backend: natural density for eventually
periodic sets, fill-rule phase formulas for dyadic block sets, zero for
finite sets. Where no certificate exists (horizon evidence, weights without
a closed form) the result degrades to a bracket or an observational value,
never to a silent guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Optional, Sequence

from .config import Config, DEFAULT_CONFIG
from .density import (
    _alpha_block_phase_limits,
    _union_pair_records,
    _value_record,
    eventual_density,
    get_weight,
)
from .exceptions import QueryBeyondHorizon, UnsupportedBackend
from .natset import (
    APUnionSet,
    DyadicBlockSet,
    FiniteSet,
    HorizonSet,
    NatSet,
    PeriodicSet,
    _lcm_within,
    finite_part,
)
from .reports import AxiomReport, CheckRecord
from .values import ExtValue, bracket, exact, infinite, observational

__all__ = [
    "LscsmDescriptor",
    "NormEstimate",
    "get_lscsm",
    "LSCSM_NAMES",
    "lscsm_eval",
    "tail_value",
    "exhaustive_norm",
    "exh_member",
    "phi_infty_eval",
    "faulhaber",
    "check_lscsm_axioms",
]


# ---------------------------------------------------------------------------
# exact power sums


_BERNOULLI: list[Fraction] = []


def _extend_bernoulli(upto: int):
    """Bernoulli numbers B_0..B_upto via the Akiyama-Tanigawa scheme."""
    global _BERNOULLI
    if len(_BERNOULLI) > upto:
        return
    n = upto + 1
    a = [Fraction(0)] * n
    out = []
    for m in range(n):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])  # B_m with the B_1 = +1/2 sign convention
    _BERNOULLI = out


_FAULHABER_COEFFS: dict[int, tuple[int, list[int]]] = {}

_MAX_EXACT_EXPONENT = 512


def _faulhaber_coeffs(e: int) -> tuple[int, list[int]]:
    """(D, [c_j]) with sum_{i=1}^{k} i^e = (sum_j c_j k^{e+1-j}) / D.

    The c_j = q_j D are the Bernoulli coefficients
    q_j = C(e+1, j) B_j / (e+1) scaled by D, the lcm of their denominators.
    """
    if e not in _FAULHABER_COEFFS:
        _extend_bernoulli(e)
        qs = [Fraction(math.comb(e + 1, j), e + 1) * _BERNOULLI[j] for j in range(e + 1)]
        den = math.lcm(*(q.denominator for q in qs))
        _FAULHABER_COEFFS[e] = (den, [q.numerator * (den // q.denominator) for q in qs])
    return _FAULHABER_COEFFS[e]


def faulhaber(k: int, e: int) -> int:
    """sum_{i=1}^{k} i^e, exactly (k may be huge; e capped by the exact budget).

    Integer Horner evaluation of Faulhaber's polynomial over one common
    denominator, followed by a single division that is checked to be exact.
    """
    if k <= 0:
        return 0
    if e == 0:
        return k
    if e == 1:
        return k * (k + 1) // 2
    den, coeffs = _faulhaber_coeffs(e)
    acc = 0
    for c in coeffs:
        acc = acc * k + c
    total, rem = divmod(acc * k, den)
    assert rem == 0
    return total


# ---------------------------------------------------------------------------
# descriptor and estimate types


@dataclass(frozen=True)
class LscsmDescriptor:
    name: str
    kind: str  # prefix | psi | alpha | infty | infty-trunc | counting | harmonic | geometric | weighted
    alpha: int = 0
    eps: Fraction = Fraction(1, 10**6)
    trunc: int = 4
    weight: str = "constant"


@dataclass(frozen=True)
class NormEstimate:
    """||A||_phi together with a profile of certified tail bounds.

    Profile entries are (cut n, certified upper bound on phi(A ∖ n)). Tails
    shrink as the cut grows, so entries are nonincreasing and each one bounds
    the norm from above. `exact` marks values that are the limit itself.
    """

    name: str
    value: ExtValue
    profile: tuple[tuple[int, Fraction], ...] = ()
    exact: bool = False


LSCSM_NAMES = ("phi-prefix", "psi-dyadic", "phi-alpha:a=<int>", "phi-infty:eps=<rat>",
               "phi-infty-trunc:a=<int>", "counting", "harmonic", "geometric",
               "weighted:f=<name>")


def get_lscsm(name: str) -> LscsmDescriptor:
    if name == "phi-prefix":
        return LscsmDescriptor(name, "prefix")
    if name == "psi-dyadic":
        return LscsmDescriptor(name, "psi")
    if name.startswith("phi-alpha"):
        arg = name.partition("a=")[2]
        try:
            a = int(arg)
        except ValueError:
            raise KeyError(f"phi-alpha needs an integer exponent, got {arg!r}; "
                           "non-integer exponents have no exact rational evaluation") from None
        if a < 0 or a > _MAX_EXACT_EXPONENT:
            raise KeyError(f"phi-alpha exponent must lie in [0, {_MAX_EXACT_EXPONENT}]")
        return LscsmDescriptor(f"phi-alpha:a={a}", "alpha", alpha=a)
    if name.startswith("phi-infty-trunc"):
        arg = name.partition("a=")[2]
        a = int(arg) if arg else 4
        if a < 0 or 2 ** a > _MAX_EXACT_EXPONENT:
            raise KeyError("phi-infty-trunc depth too large for exact evaluation")
        return LscsmDescriptor(f"phi-infty-trunc:a={a}", "infty-trunc", trunc=a)
    if name.startswith("phi-infty"):
        arg = name.partition("eps=")[2]
        eps = _parse_rational(arg) if arg else Fraction(1, 10**6)
        if eps <= 0:
            raise KeyError("phi-infty needs eps > 0")
        return LscsmDescriptor(f"phi-infty:eps={arg or '1/1000000'}", "infty", eps=eps)
    if name == "counting":
        return LscsmDescriptor(name, "counting")
    if name == "harmonic":
        return LscsmDescriptor(name, "harmonic")
    if name == "geometric":
        return LscsmDescriptor(name, "geometric")
    if name.startswith("weighted"):
        wname = name.partition("f=")[2] or "constant"
        get_weight(wname)  # validates the name
        return LscsmDescriptor(f"weighted:f={wname}", "weighted", weight=wname)
    raise KeyError(f"unknown lscsm {name!r}; have {list(LSCSM_NAMES)}")


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            p, q = text.split("/")
            return Fraction(int(p), int(q))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise KeyError(f"bad rational {text!r}") from e


# ---------------------------------------------------------------------------
# finite-prefix evaluation: phi(A ∩ n)


def _runs(elements: Sequence[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive integers, as (first, last) pairs."""
    runs: list[tuple[int, int]] = []
    for x in elements:
        if runs and x == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], x)
        else:
            runs.append((x, x))
    return runs


def _phi_prefix_elements(elements: Sequence[int]) -> Fraction:
    """sup_k |S ∩ [1,k]| / k for finite sorted S with members >= 1.

    The ratio climbs inside a run of members and decays in the gaps, so run
    ends are the only candidates for the supremum.
    """
    best_n, best_d = 0, 1
    count = 0
    for lo, hi in _runs(elements):
        count += hi - lo + 1
        if count * best_d > best_n * hi:
            best_n, best_d = count, hi
    return Fraction(best_n, best_d)


def _phi_alpha_elements(elements: Sequence[int], e: int) -> Fraction:
    """sup_k (sum_{i in S, i <= k} i^e) / (sum_{i <= k} i^e), S finite sorted >= 1."""
    if e == 0:
        return _phi_prefix_elements(elements)
    best_n, best_d = 0, 1
    num = 0
    for lo, hi in _runs(elements):
        num += faulhaber(hi, e) - faulhaber(lo - 1, e)
        den = faulhaber(hi, e)
        if num * best_d > best_n * den:
            best_n, best_d = num, den
    return Fraction(best_n, best_d)


def _psi_elements(elements: Sequence[int]) -> Fraction:
    best = Fraction(0)
    i = 0
    total = len(elements)
    while i < total:
        if elements[i] < 1:
            i += 1
            continue
        blk = elements[i].bit_length() - 1
        hi = 1 << (blk + 1)
        j = i
        while j < total and elements[j] < hi:
            j += 1
        r = Fraction(j - i, 1 << blk)
        if r > best:
            best = r
        i = j
    return best


def _prefix_exponent(desc: LscsmDescriptor) -> Optional[int]:
    """e when desc is phi-alpha:a=e under any of its names (phi-prefix and
    weighted:f=constant are e = 0, with the same evaluator), else None."""
    if desc.kind in ("prefix", "alpha") or (desc.kind == "weighted"
                                            and desc.weight == "constant"):
        return desc.alpha
    return None


def lscsm_eval(desc: LscsmDescriptor | str, a: NatSet, n: int,
               config: Config = DEFAULT_CONFIG) -> ExtValue:
    """phi(A ∩ n), exact for the shipped catalog (phi-infty gets a bracket).

    A ∩ n is the prefix below n; horizon sets raise when n exceeds the
    evidence. Cost grows with the number of members below n.
    """
    if isinstance(desc, str):
        desc = get_lscsm(desc)
    e = _prefix_exponent(desc)
    if e is not None:
        return exact(_phi_alpha_elements(a.elements_in(1, n), e))
    if desc.kind == "psi":
        return exact(_psi_elements(a.elements_in(1, n)))
    if desc.kind == "weighted":
        w = get_weight(desc.weight)
        members = set(a.elements_in(1, n))
        best = Fraction(0)
        num = Fraction(0)
        den = Fraction(0)
        for i in range(1, n):
            fi = Fraction(w.func(i))
            den += fi
            if i in members and den > 0:
                num += fi
                if num * best.denominator > best.numerator * den:
                    best = num / den
            elif i in members:
                num += fi
        return exact(best)
    if desc.kind == "counting":
        return exact(Fraction(a.count_range(0, n)))
    if desc.kind == "harmonic":
        return exact(sum((Fraction(1, x + 1) for x in a.elements_in(0, n)), Fraction(0)))
    if desc.kind == "geometric":
        num = 0
        for x in a.elements_in(0, n):
            num += 1 << (n - x - 1)
        return exact(Fraction(num, 1 << n) if n > 0 else Fraction(0))
    if desc.kind == "infty":
        return phi_infty_eval(a, n, desc.eps, config)
    if desc.kind == "infty-trunc":
        elems = a.elements_in(1, n)
        pairs, _ = _components(desc)
        return exact(sum((w * _phi_alpha_elements(elems, e) for w, e in pairs), Fraction(0)))
    raise KeyError(f"unknown lscsm kind {desc.kind!r}")


# ---------------------------------------------------------------------------
# phi_infty with a certified truncation


def phi_infty_eval(a: NatSet, n: int, eps, config: Config = DEFAULT_CONFIG) -> ExtValue:
    """A certified bracket around phi_infty(A ∩ n) = sum_a 2^-a phi_{2^a}(A ∩ n).

    The alpha-sum is truncated once the remaining terms total at most eps/2
    (each phi_{2^a} lies in [0,1]). Evaluated terms are exact while the
    exponent fits the power-sum budget; beyond it, concentration at the least
    element k0 pins the term: the ratio at k0 alone is already at least
    1 - (k0-1)((k0-1)/k0)^e. The returned bracket always contains the true
    value and reports its achieved width.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    elems = a.elements_in(1, n)
    if not elems:
        return exact(0)
    pairs, rest = _components(LscsmDescriptor("phi-infty", "infty", eps=eps))
    lo_total = Fraction(0)
    hi_total = rest  # the truncated alpha-tail lies in [0, rest]
    k0 = elems[0]
    delta = eps / 4
    for w, e in pairs:
        term = _phi_alpha_term(elems, k0, e, delta)
        lo_total += w * term.lower
        hi_total += w * (term.upper if term.upper is not None else term.value)
    note = f"alpha-sum truncated at a={len(pairs) - 1}; width {float(hi_total - lo_total):.3g}"
    return bracket(lo_total, hi_total, note)


def _components(desc: LscsmDescriptor) -> tuple[list[tuple[Fraction, int]], Fraction]:
    """The (2^-a, 2^a) weight/exponent pairs a phi-infty sum evaluates, and the
    mass 2^-a0 its omitted terms a > a0 may carry (each phi_{2^a} lies in
    [0,1]). phi-infty stops at the first a0 with 2^-a0 <= eps/2;
    phi-infty-trunc keeps a <= A and omits nothing."""
    if desc.kind == "infty-trunc":
        a0, rest = desc.trunc, Fraction(0)
    else:
        a0 = 0
        while Fraction(1, 2 ** a0) > desc.eps / 2:
            a0 += 1
        rest = Fraction(1, 2 ** a0)
    return [(Fraction(1, 2 ** ai), 2 ** ai) for ai in range(a0 + 1)], rest


def _phi_alpha_term(elems: Sequence[int], k0: int, e: int, delta: Fraction) -> ExtValue:
    """phi_e on a finite element list: exact when affordable, else a bracket."""
    if k0 == 1:
        return exact(1)  # the prefix [1,1] is already fully occupied
    if e <= _MAX_EXACT_EXPONENT:
        return exact(_phi_alpha_elements(elems, e))
    # (1 - 1/k0)^{k0} < 1/2, so the weight below k0 relative to k0^e is at
    # most (k0-1) 2^{-floor(e/k0)}; certify concentration without raising a
    # huge power
    tt = ((k0 - 1) * delta.denominator // max(delta.numerator, 1)).bit_length() + 1
    if e // k0 >= tt:
        drop = Fraction(k0 - 1, 2 ** tt)
        return bracket(1 - drop, 1, "concentration at the least element")
    return bracket(0, 1, "exponent beyond the exact budget; bracket is wide")


# ---------------------------------------------------------------------------
# tail evaluation: phi(A ∖ n)
#
# Tails feed the norm profiles, so exactness is spent where the backend
# allows it: eventually periodic sets get residue-class sweeps with
# deviation envelopes, block sets get slice-end scans against exact phase
# limits, horizon sets stay observational.


def _mult_order_2(m: int, cap: int) -> Optional[int]:
    """Multiplicative order of 2 modulo the odd part of m, or None beyond cap."""
    while m % 2 == 0:
        m //= 2
    if m == 1:
        return 1
    x = 2 % m
    for k in range(1, cap + 1):
        if x == 1:
            return k
        x = (x * 2) % m
    return None


def _deviation_bound(a: NatSet) -> int:
    """B with |count(A ∩ [1,x]) - d x| <= B for all x (eventually periodic)."""
    if isinstance(a, PeriodicSet):
        return a.modulus + len(a.added) + len(a.removed) + 1
    if isinstance(a, APUnionSet):
        # inclusion-exclusion touches at most 2^t progressions, each off by
        # less than one period, plus the finite corrections
        return (1 << min(len(a.terms), 20)) + len(a.extras) + len(a.removals) + 2
    raise UnsupportedBackend(a.kind)


def _ep_structure(a: NatSet, config: Config):
    """(modulus or None if over budget, irregular threshold) for eventually
    periodic sets."""
    if isinstance(a, PeriodicSet):
        return a.modulus, a.threshold
    return _lcm_within((tm.modulus for tm in a.terms), config.window_sweep_budget), a.threshold


def _evidence_tail(a: NatSet, n: int, on_elements: Callable[[list[int]], Fraction],
                   note: str) -> Optional[ExtValue]:
    """phi(A ∖ n) read off the members themselves: exact on a finite set,
    observational on a horizon set's evidence, None on the other backends."""
    if isinstance(a, FiniteSet):
        return exact(on_elements([x for x in a.elements if x >= max(n, 1)]))
    if isinstance(a, HorizonSet):
        return observational(on_elements([x for x in a.elements_in(1, a.horizon) if x >= n]),
                             note)
    return None


def _phi_alpha_tail(a: NatSet, n: int, e: int, config: Config) -> ExtValue:
    """phi_alpha(A ∖ n); e = 0 is phi-prefix (and weighted:f=constant)."""
    got = _evidence_tail(a, n, lambda xs: _phi_alpha_elements(xs, e),
                         "weighted prefix ratios within the horizon only" if e else
                         "prefix ratios within the horizon; the supremum also "
                         "ranges over unknown tail members")
    if got is not None:
        return got
    if isinstance(a, DyadicBlockSet):
        return _block_alpha_tail(a, n, e, config)
    if isinstance(a, (PeriodicSet, APUnionSet)):
        d = a.density()
        start = max(n, 1)
        b = _deviation_bound(a)
        if e == 0:
            m, t = _ep_structure(a, config)
            if m is not None:
                # the ratio at k is d + (g(k mod m) - c0)/k past the threshold,
                # so each residue class peaks at its first k; one period suffices
                return exact(max(d, _phi_alpha_elements(
                    a.elements_in(start, max(n, t, 1) + m + 1), 0)))
            # the tail count up to k is at most d(k - n) + 2B, so ratios beyond
            # the window stay below d + 2B/k
            w_end = start + 4096
            env = d + Fraction(2 * b, w_end)
            note = "window scan plus deviation envelope (moduli beyond the sweep budget)"
        else:
            # Abel summation against the counting deviation B bounds the
            # weighted deviation by 2B(k+1)^e, so ratio(k) <= d + 8B(e+1)/k
            # once k >= 2e
            w_end = start + max(512, min(4 * (e + 1) * b, 1 << 13))
            env = min(d + Fraction(8 * b * (e + 1), max(w_end, 2 * e)), Fraction(1))
            note = "run-end scan plus deviation envelope"
        best = _phi_alpha_elements(a.elements_in(start, w_end + 1), e)
        if best >= env:
            return exact(best)
        return bracket(max(best, d), max(best, env), note)
    raise UnsupportedBackend(f"{'weighted' if e else 'prefix'} tail unsupported "
                             f"for backend {a.kind}")


def _block_tail_weight(a: DyadicBlockSet, start: int, k: int, e: int) -> int:
    """sum of i^e over members of A with start <= i <= k."""
    if k < start:
        return 0
    total = 0
    for blk in range(max(start, 1).bit_length() - 1, k.bit_length()):
        ln = a.slice_len(blk)
        if not ln:
            continue
        lo = max(1 << blk, start)
        hi = min((1 << blk) + ln - 1, k)
        if lo <= hi:
            total += (faulhaber(hi, e) - faulhaber(lo - 1, e)) if e else hi - lo + 1
    for x in a.extras:
        if start <= x <= k and not a.rule_member(x):
            total += x ** e
    for x in a.removals:
        if start <= x <= k and a.rule_member(x):
            total -= x ** e
    return total


def _block_alpha_tail(a: DyadicBlockSet, n: int, e: int, config: Config) -> ExtValue:
    """phi_alpha(A ∖ n) on a block set.

    Candidates sit at run ends (slice ends, extras, points before removals);
    the ratio climbs inside runs and decays across gaps. For cyclic fills the
    slice-end ratios converge geometrically to the phase limits, and beyond
    the scanned window |ratio_M - limit| <= delta with the explicit envelope
    computed below, so sup = max(scan, phase limits) within delta. Vanishing
    fills get an envelope that dies with the fill, closing the scan exactly.
    """
    fill = a.fill
    start = max(n, 1)
    cut_block = start.bit_length() - 1
    exc_top = max([x.bit_length() for x in a.extras]
                  + [x.bit_length() for x in a.removals] + [0])

    def candidates_in(j_lo: int, j_hi: int) -> list[int]:
        # exceptions x >= start lie in blocks >= cut_block, so each one is
        # listed by exactly one range of a scan over consecutive ranges
        out = set()
        for j in range(j_lo, j_hi + 1):
            ln = a.slice_len(j)
            if ln:
                end = (1 << j) + ln - 1
                if end >= start:
                    out.add(end)
                if (1 << j) <= start <= end:
                    out.add(start)
        for x in a.extras:
            if x >= start and j_lo <= x.bit_length() - 1 <= j_hi:
                out.add(x)
        for x in a.removals:
            if x - 1 >= start and j_lo <= x.bit_length() - 1 <= j_hi:
                out.add(x - 1)
        return sorted(out)

    # the tail weight over [start, k], carried forward as k grows: the weight
    # adds up over disjoint intervals, so each slice is summed only once
    reached, weight = start - 1, 0

    def weight_to(k: int) -> int:
        nonlocal reached, weight
        assert k >= reached
        weight += _block_tail_weight(a, reached + 1, k, e)
        reached = k
        return weight

    def best_over(cands: Sequence[int], seed: Fraction) -> Fraction:
        best = seed
        for k in cands:
            num = weight_to(k)
            den = faulhaber(k, e)
            if num > 0 and num * best.denominator > best.numerator * den:
                best = Fraction(num, den)
        return best

    if fill.structure == "vanishing":
        best = Fraction(0)
        env = Fraction(1)
        j = cut_block
        j_cap = cut_block + 4096
        j_pure = max(fill.threshold, exc_top + 1, cut_block + 2, e.bit_length() + 2)
        while j <= j_cap:
            chunk_hi = min(j + 16, j_cap)
            best = best_over(candidates_in(j, chunk_hi), best)
            j = chunk_hi + 1
            if j <= j_pure:
                continue
            # any later ratio is at most (e+1) [ N(j)/2^{j(e+1)}
            #   + f(j) 2^{2e+1}/(2^{e+1}-1) + rounding slack ]
            # carry only to 2^j - 1: a removal at 2^j lists 2^j - 1 next
            cum = weight_to((1 << j) - 1) + _block_tail_weight(a, 1 << j, 1 << j, e)
            f_up = fill.value(j)
            term1 = Fraction(cum, 2 ** (j * (e + 1)))
            term2 = f_up * Fraction(2 ** (2 * e + 1), 2 ** (e + 1) - 1)
            if e:
                term3 = Fraction(2 ** (2 * e + 1), 2 ** e - 1 if e > 1 else 1) * Fraction(1, 2 ** j)
            else:
                term3 = Fraction(j + 2, 2 ** (j + 1))
            env = (e + 1) * (term1 + term2 + term3)
            if env < best:
                return exact(best)
        return bracket(best, best + env, "scan cap reached before the envelope closed")

    # cyclic fill
    if all(c == 0 for c in fill.cycle):
        hi_probe = 1 << (max(exc_top + 1, cut_block + 1) + 1)
        return exact(_phi_alpha_elements(a.elements_in(start, hi_probe), e))
    P = len(fill.cycle)
    j1 = max(cut_block + 1, fill.threshold, exc_top + 1, e.bit_length() + 1, 2)
    m_star = j1 + 44
    best = best_over(candidates_in(cut_block, m_star), Fraction(0))
    limits = _alpha_block_phase_limits(fill, e)
    max_lim = max(limits)
    # K absorbs everything below the scan edge exactly; beyond it each slice
    # weight differs from its geometric ideal by at most C_e 2^{je}, C_e = 6*2^e
    q_star = (m_star - fill.threshold) % P
    # limits[q] (1+c_q)^{e+1} = G_q + g_q is the phase-q geometric ideal
    phi_star = limits[q_star] * (1 + fill.cycle[q_star]) ** (e + 1) \
        * Fraction(2 ** (m_star * (e + 1)), e + 1)
    n_star = Fraction(weight_to((1 << (m_star + 1)) - 1))
    kcorr = abs(n_star - phi_star)
    m0 = m_star + 1
    c_e = 6 * 2 ** e
    if e:
        delta = (e + 1) * kcorr / 2 ** (m0 * (e + 1)) \
            + (e + 1) * (2 * c_e + 3 * (e + 1) * 4 ** e * max_lim) / Fraction(2 ** m0)
    else:
        delta = (kcorr + 3 * max_lim) / Fraction(2 ** m0) + Fraction(3 * c_e, 2 ** m_star)
    if best >= max_lim + delta:
        return exact(best)
    return bracket(max(best, max_lim), max(best, max_lim + delta),
                   "slice-end scan plus phase-limit envelope")


def _psi_scan(a: NatSet, n: int, j_lo: int, j_hi: int) -> Fraction:
    """max of |(A ∖ n) ∩ I_j| / 2^j over the blocks j_lo <= j <= j_hi (0 if none)."""
    best = Fraction(0)
    for j in range(j_lo, j_hi + 1):
        lo = max(1 << j, n)
        if lo < 1 << (j + 1):
            best = max(best, Fraction(a.count_range(lo, 1 << (j + 1)), 1 << j))
    return best


def _psi_tail(a: NatSet, n: int, config: Config) -> ExtValue:
    got = _evidence_tail(a, n, _psi_elements, "block ratios within the horizon only")
    if got is not None:
        return got
    if isinstance(a, DyadicBlockSet):
        return _psi_tail_blocks(a, n)
    if isinstance(a, (PeriodicSet, APUnionSet)):
        return _psi_tail_eventually_periodic(a, n, config)
    raise UnsupportedBackend(f"dyadic-block tail unsupported for backend {a.kind}")


def _psi_tail_blocks(a: DyadicBlockSet, n: int) -> ExtValue:
    fill = a.fill
    j0 = max(n, 1).bit_length() - 1
    exc_top = max([x.bit_length() for x in a.extras]
                  + [x.bit_length() for x in a.removals] + [0])
    if fill.structure == "vanishing":
        # from block j_env on: |A ∩ I_j|/2^j <= f_j + 2^-(j+1), f nonincreasing
        j_cap = j0 + 4096
        j_env = max(j0 + 1, exc_top, fill.threshold) + 1
        best = _psi_scan(a, n, j0, min(j_env, j_cap) - 1)
        env = Fraction(1)
        for j in range(j_env, j_cap):
            best = max(best, _psi_scan(a, n, j, j))
            env = fill.value(j + 1) + Fraction(1, 2 ** (j + 1))
            if env <= best:
                return exact(best)
        return bracket(best, best + env, "scan cap reached before the envelope closed")
    # cyclic fill: the rounding excess round(c 2^j) - c 2^j is eventually
    # periodic in j (period divides the order of 2 modulo each denominator's
    # odd part), so positive excesses peak at their first occurrence within
    # one full combined cycle and the rest approach the cycle values
    P = len(fill.cycle)
    orders = [_mult_order_2(c.denominator, 4096) for c in fill.cycle]
    max_c = max(fill.cycle)
    pre = max(fill.threshold, exc_top + 1, j0) + max(c.denominator.bit_length()
                                                     for c in fill.cycle)
    if all(o is not None for o in orders):
        return exact(max(_psi_scan(a, n, j0, pre + P * max(orders) + 1), max_c))
    scan_to = pre + 4096
    best = _psi_scan(a, n, j0, scan_to)
    return bracket(max(best, max_c), max(best, max_c + Fraction(1, 2 ** scan_to)),
                   "rounding period beyond the order cap")


def _psi_tail_eventually_periodic(a: NatSet, n: int, config: Config) -> ExtValue:
    d = a.density()
    m, t = _ep_structure(a, config)
    j0 = max(n, 1).bit_length() - 1
    j_pure = max(j0, t.bit_length())
    order = _mult_order_2(m, 4096) if m is not None else None
    if order is not None:
        # |A ∩ I_j|/2^j = d + g(2^j mod m)/2^j: the residue class of 2^j
        # cycles, so positive deviations peak at their first occurrence
        v2 = (m & -m).bit_length() - 1
        return exact(max(d, _psi_scan(a, n, j0, j_pure + v2 + order + 1)))
    scan_to = j_pure + 64
    best = _psi_scan(a, n, j0, scan_to)
    b = _deviation_bound(a)
    return bracket(max(d, best), max(best, d + Fraction(2 * b, 2 ** scan_to)),
                   "residue cycle beyond the order cap; deviation-bounded")


def _counting_tail(a: NatSet, n: int) -> ExtValue:
    fin = finite_part(a)
    if fin is not None:
        return exact(Fraction(sum(1 for x in fin.elements if x >= n)))
    if isinstance(a, HorizonSet):
        return bracket(a.count_range(min(n, a.horizon), a.horizon), None,
                       "membership beyond the horizon is unknown")
    if isinstance(a, (PeriodicSet, APUnionSet)):
        return infinite()  # a nonempty rule part recurs in every period
    if isinstance(a, DyadicBlockSet):
        if a.fill.structure == "cycle":
            return infinite()  # a positive cycle value recurs forever
        if a.fill.slice_growth == "unbounded":
            return infinite()  # growing slices never stop contributing
        return bracket(Fraction(a.count_range(n, max(n, 2) * 2)), None,
                       "tail slice occupancy undetermined for vanishing fill")
    raise UnsupportedBackend(a.kind)


def _harmonic_tail(a: NatSet, n: int) -> ExtValue:
    fin = finite_part(a)
    if fin is not None:
        return exact(sum((Fraction(1, x + 1) for x in fin.elements if x >= n), Fraction(0)))
    if isinstance(a, (PeriodicSet, APUnionSet)):
        return infinite()  # every infinite progression has a divergent harmonic tail
    if isinstance(a, DyadicBlockSet):
        if a.fill.structure == "cycle":
            return infinite()  # per-block mass is bounded below; the sum diverges
        if a.fill.slice_growth == "bounded":
            # at most B members per block at height 2^j: the tail beyond
            # block J sums below 2B 2^-J; B combines the scanned maximum
            # with the declared boundedness of the slice lengths
            j0 = max(n, 1).bit_length() - 1
            j_hi = j0 + 20
            b = max(a.slice_len(j) for j in range(j_hi + 17)) + 1
            partial = sum((Fraction(1, x + 1) for x in a.elements_in(n, 1 << j_hi)),
                          Fraction(0))
            return bracket(partial, partial + Fraction(2 * b, 2 ** j_hi),
                           "bounded slices; geometric tail bound")
        return bracket(0, None, "tail divergence undetermined for vanishing fill")
    if isinstance(a, HorizonSet):
        got = sum((Fraction(1, x + 1) for x in a.elements_in(min(n, a.horizon), a.horizon)),
                  Fraction(0))
        return bracket(got, None, "membership beyond the horizon is unknown")
    raise UnsupportedBackend(a.kind)


def _geometric_tail(a: NatSet, n: int) -> ExtValue:
    cap = n + 1024
    if isinstance(a, HorizonSet):
        cap = min(cap, a.horizon)
    num = 0
    for x in a.elements_in(n, cap):
        num += 1 << (cap - x - 1)
    partial = Fraction(num, 1 << cap)
    return bracket(partial, partial + Fraction(1, 1 << cap),
                   "residual mass beyond the cap is below 2^-cap")


def _weighted_tail(a: NatSet, n: int) -> ExtValue:
    fin = finite_part(a)
    if fin is not None and not any(x >= max(n, 1) for x in fin.elements):
        return exact(0)
    d = eventual_density(a)
    if d is not None:
        return bracket(d, 1, "weighted supremum has no closed form; "
                             "bracketed by [density, 1]")
    return bracket(0, 1, "weighted supremum has no closed form on this backend")


_INFTY_EXACT_TAIL_EXPONENT = 16


def _infty_component_tail(a: NatSet, n: int, e: int, config: Config) -> ExtValue:
    """phi_{e}(A ∖ n) for large exponents inside the phi-infty sum: cheap
    certified bounds instead of exact sweeps."""
    if isinstance(a, FiniteSet) and e <= _MAX_EXACT_EXPONENT:
        return _phi_alpha_tail(a, n, e, config)
    lo = eventual_density(a) or Fraction(0)  # the tail supremum dominates the limit
    if isinstance(a, DyadicBlockSet) and a.fill.structure == "cycle":
        c_max = max(a.fill.cycle)
        if c_max > 0:
            # (1+c)^{e+1} >= 1 + (e+1)c bounds the slice-end limit from below
            lo = max(lo, 1 - Fraction(1, 1 + (e + 1) * c_max))
    probe_hi = max(n, 1) * 2 + 4096
    if isinstance(a, HorizonSet):
        probe_hi = min(probe_hi, a.horizon)
    elems = a.elements_in(max(n, 1), probe_hi)
    if elems:
        k0 = elems[0]
        if k0 == 1:
            return exact(1)
        if e <= _MAX_EXACT_EXPONENT:
            drop = (k0 - 1) * Fraction(k0 - 1, k0) ** e
        else:
            tt = min(e // k0, k0.bit_length() + 64)
            drop = Fraction(k0 - 1, 2 ** tt)
        if drop < 1:
            lo = max(lo, 1 - drop)
    return bracket(lo, 1, "coarse component bounds")


def tail_value(desc: LscsmDescriptor | str, a: NatSet, n: int,
               config: Config = DEFAULT_CONFIG) -> ExtValue:
    """phi(A ∖ n): exact or bracketed per backend, observational on horizons."""
    if isinstance(desc, str):
        desc = get_lscsm(desc)
    e = _prefix_exponent(desc)
    if e is not None:
        return _phi_alpha_tail(a, n, e, config)
    if desc.kind == "psi":
        return _psi_tail(a, n, config)
    if desc.kind in ("infty", "infty-trunc"):
        pairs, rest = _components(desc)
        parts = [(w, _phi_alpha_tail(a, n, e, config) if e <= _INFTY_EXACT_TAIL_EXPONENT
                  else _infty_component_tail(a, n, e, config)) for w, e in pairs]
        if any(t.status == "observational" for _, t in parts):
            seen = sum((w * (t.value if t.value is not None else (t.lower or Fraction(0)))
                        for w, t in parts), Fraction(0))
            return observational(seen, "horizon-limited evidence")
        lo = sum((w * t.lower for w, t in parts), Fraction(0))
        hi = sum((w * (t.upper if t.upper is not None else t.value) for w, t in parts), rest)
        if desc.kind == "infty-trunc" and all(t.status == "exact" for _, t in parts):
            return exact(lo)
        return bracket(lo, hi, "summed alpha-component tails")
    if desc.kind == "counting":
        return _counting_tail(a, n)
    if desc.kind == "harmonic":
        return _harmonic_tail(a, n)
    if desc.kind == "geometric":
        return _geometric_tail(a, n)
    if desc.kind == "weighted":
        return _weighted_tail(a, n)
    raise KeyError(f"unknown lscsm kind {desc.kind!r}")


# ---------------------------------------------------------------------------
# exhaustive norms


def _norm_value(desc: LscsmDescriptor, a: NatSet, config: Config) -> ExtValue:
    kind = desc.kind

    if kind == "geometric":
        return exact(0)  # residual mass beyond n is below 2^-n for every set

    if finite_part(a) is not None:
        return exact(0)  # finite sets vanish at infinity under every lscsm

    if isinstance(a, HorizonSet):
        if kind in ("counting", "harmonic"):
            return bracket(0, None, "tail behaviour beyond the horizon is unknown")
        t = tail_value(desc, a, a.horizon // 2, config)
        v = t.value if t.value is not None else t.upper
        return observational(v, "horizon evidence cannot certify a limit")

    if kind == "counting":
        if isinstance(a, DyadicBlockSet) and a.fill.structure == "vanishing" \
                and a.fill.slice_growth == "bounded":
            return bracket(0, None, "tail membership count undetermined for "
                                    "a vanishing fill with bounded slices")
        return infinite()  # every other infinite backend keeps recurring mass

    if kind == "harmonic":
        t = _harmonic_tail(a, 0)
        if t.status == "infinite":
            return infinite()  # divergent series: every tail is infinite
        if t.status == "bracket" and t.upper is not None:
            return exact(0)  # certified summable: tails vanish
        return bracket(0, None, t.note)

    d = eventual_density(a)

    if kind == "weighted" and desc.weight != "constant":
        if d is not None and get_weight(desc.weight).slowly_varying:
            return exact(d)  # slowly varying weights reproduce the density
        return bracket(0, 1, "no closed form for this weight on this backend")

    if kind not in ("prefix", "alpha", "weighted", "psi", "infty", "infty-trunc"):
        raise KeyError(f"unknown lscsm kind {kind!r}")
    # the ratio functionals: a known density is the limit of every prefix,
    # block and component ratio; past that only block fills have closed forms
    if d is None and not isinstance(a, DyadicBlockSet):
        raise UnsupportedBackend(f"no norm evaluation for backend {a.kind}")
    if d is None and a.fill.structure == "vanishing":
        return exact(0)

    if kind == "psi":
        # block-ratio deviations decay like 2^-j; rounding washes out of the limsup
        return exact(d if d is not None else max(a.fill.cycle))
    e = _prefix_exponent(desc)
    if e is not None:
        return exact(d if d is not None else max(_alpha_block_phase_limits(a.fill, e)))

    pairs, rest = _components(desc)
    if d is not None:
        # every alpha-component norm equals the density (2d for the full sum)
        return exact(d * (sum(w for w, _ in pairs) + rest))
    lo = hi = Fraction(0)
    c_min = min(a.fill.cycle)
    for w, e in pairs:
        if e <= 8192:
            v = max(_alpha_block_phase_limits(a.fill, e))
            lo += w * v
            hi += w * v
        else:
            # (1+c)^{e+1} >= 1 + (e+1)c certifies a cheap lower bound
            if c_min > 0:
                lo += w * (1 - Fraction(1, 1 + (e + 1) * c_min))
            hi += w
    if kind == "infty-trunc":
        return exact(lo)  # 2^A <= 512, so every component above is a closed form
    return bracket(lo, hi + rest, "component norms summed with a certified tail")


def _profile_cuts(desc: LscsmDescriptor, a: NatSet) -> list[int]:
    if desc.kind in ("infty", "infty-trunc") and isinstance(a, (PeriodicSet, APUnionSet)):
        return [64]  # component sweeps are costly there; keep one certified entry
    return [1 << k for k in range(0, 13, 2)]


def exhaustive_norm(desc: LscsmDescriptor | str, a: NatSet,
                    config: Config = DEFAULT_CONFIG,
                    profile_cuts: Optional[Sequence[int]] = None) -> NormEstimate:
    """||A||_phi = lim_n phi(A ∖ n), with a nonincreasing certified profile.

    The value is exact on finite, periodic, progression-union and block
    backends for the shipped catalog; horizon sets yield observational
    values and an empty profile, since their tails cannot be certified.
    """
    if isinstance(desc, str):
        desc = get_lscsm(desc)
    value = _norm_value(desc, a, config)
    profile: list[tuple[int, Fraction]] = []
    if value.status in ("exact", "bracket"):
        cuts = list(profile_cuts) if profile_cuts is not None else _profile_cuts(desc, a)
        prev: Optional[Fraction] = None
        for ncut in cuts:
            if isinstance(a, HorizonSet) and ncut >= a.horizon:
                break
            t = tail_value(desc, a, ncut, config)
            if t.status == "exact":
                up = t.value
            elif t.status == "bracket" and t.upper is not None:
                up = t.upper
            else:
                profile = []
                break
            if prev is not None and up > prev:
                up = prev  # both certify the tail; keep the tighter bound
            profile.append((ncut, up))
            prev = up
    return NormEstimate(desc.name, value, tuple(profile),
                        exact=value.status in ("exact", "infinite"))


def exh_member(desc: LscsmDescriptor | str, a: NatSet,
               config: Config = DEFAULT_CONFIG) -> str:
    """Membership in Exh(phi): "in" iff the norm is exactly 0, "out" iff the
    norm is certified positive, "unknown" otherwise."""
    est = exhaustive_norm(desc, a, config)
    v = est.value
    if v.status == "exact":
        return "in" if v.value == 0 else "out"
    if v.status == "infinite":
        return "out"
    if v.status == "bracket" and v.lower is not None and v.lower > 0:
        return "out"
    return "unknown"


# ---------------------------------------------------------------------------
# axiom checks


def check_lscsm_axioms(desc: LscsmDescriptor | str, sets: Sequence[NatSet],
                       config: Config = DEFAULT_CONFIG,
                       eval_fn: Optional[Callable[[NatSet, int], ExtValue]] = None,
                       probe_n: int = 96) -> AxiomReport:
    """phi(∅) = 0, monotone, subadditive, finite on finite sets, and
    nondecreasing in the prefix length, all checked with exact arithmetic at
    the probe horizon. Pass eval_fn to audit a foreign (possibly broken)
    functional with the same battery. Each set is evaluated at most once per
    probe length."""
    if isinstance(desc, str):
        desc = get_lscsm(desc)
    raw = eval_fn or (lambda s, m: lscsm_eval(desc, s, m, config))

    def ev(s: NatSet, m: int = probe_n):
        try:
            v = raw(s, m)
        except QueryBeyondHorizon as e:
            # a horizon set narrower than the probe has no value there
            return None, f"beyond the horizon: {e}"
        return (v, "") if v.status == "exact" else (None, "value not exact at this probe")

    at = cache(lambda i: ev(sets[i]))
    # phi(∅) is judged on any value: only an exact 0 passes
    records = [_value_record("empty-null", (raw(FiniteSet(()), probe_n), ""), 0,
                             "phi of the empty set")]

    vfin = raw(FiniteSet(tuple(range(1, 20))), probe_n)
    ok = vfin.status in ("exact", "bracket") and (
        vfin.value is not None or vfin.upper is not None)
    records.append(CheckRecord("finite-finite", "pass" if ok else "fail",
                               "finite sets get finite values", witness=vfin.value))

    for i, s in enumerate(sets):
        vals = []
        for m in (probe_n // 4, probe_n // 2, probe_n):
            v, why = at(i) if m == probe_n else ev(s, m)
            if v is None:
                break
            vals.append(v.value)
        if len(vals) < 3:
            records.append(CheckRecord(f"prefix-monotone[{i}]", "skip", why))
            continue
        ok = all(x <= y for x, y in zip(vals, vals[1:]))
        records.append(CheckRecord(f"prefix-monotone[{i}]", "pass" if ok else "fail",
                                   "phi(A ∩ n) grows with n",
                                   witness=[str(x) for x in vals]))

    records += _union_pair_records(sets, at, ev, config,
                                   ("the union dominates both parts",
                                    "the union value is at most the sum"))
    return AxiomReport(f"lscsm {desc.name}", tuple(records))
