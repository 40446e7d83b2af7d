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
weigh membership rather than position ratios).

Finite evidence has one evaluator, _finite_value(desc, F), for every lscsm
except phi-infty: lscsm_eval applies it to the prefix A ∩ n, and tail_value,
phi-infty's alpha components included, to the tail of every set that
natset.finite_part finds finite, before any per-backend dispatch. phi-infty
on a prefix is its tail evaluator on the finite set A ∩ [1, n). So
finite_part decides every finite shortcut, and finite tails are exact under
every name, except weighted tails reaching past _FINITE_SCAN_MAX (that scan
reads every position), geometric tails reaching the grammar's 2^-14000 bound
and nonempty phi-infty tails (their omitted terms), which keep their
bracket. An empty tail is 0 under every name.

The lscsms counting, harmonic and geometric are measures: tail_value reads
phi(A ∖ n) from density._additive, and the counting and harmonic norms read
its value at 0 (infinite gives ∞, a certified upper end 0, anything else
[0, ∞]). The geometric norm is 0 on every set.

Norms of the ratio functionals come from closed forms per backend: natural
density for eventually periodic sets, fill-rule phase formulas for dyadic
block sets, zero for finite sets. Where no certificate exists (horizon
evidence, weights without a closed form) the result degrades to a bracket
or an observational value, never to a silent guess.

A norm's profile cuts share one scan of the set (_TailScan), made per call
and dropped when it returns, so what it holds is bounded by one norm. Its
lazy memos (_Memo) make each value on its first read: per exponent e, the
power sums faulhaber(k, e), each computed once and read by a block set's
prefix weights P(x) = sum of i^e over A ∩ [1, x] (_BlockWeights; a cut's
tail weight is P(k) - P(n - 1)) and a periodic set's scans alike, and a
block set's phase limits; and the counts of the dyadic blocks psi reads
whole. An eventually periodic set's members over the windows read so far are
kept too. tail_value makes a scan for its one cut and runs the same code.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate
from typing import Callable, Optional, Sequence

from .config import Config, DEFAULT_CONFIG
from .density import (
    LSCSM_NAMES,
    _additive,
    _alpha_block_phase_limits,
    _mass,
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
    _signed_exceptions,
    drop_below,
    finite_part,
)
from .reports import AxiomReport, CheckRecord
from .values import ExtValue, _rational, bracket, exact, infinite, observational

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


_MAX_EXACT_EXPONENT = 512


@cache
def _faulhaber_coeffs(e: int) -> tuple[int, list[int]]:
    """(D, [c_j]) with sum_{i=1}^{k} i^e = (sum_j c_j k^{e+1-j}) / D.

    The c_j = q_j D are the Bernoulli coefficients
    q_j = C(e+1, j) B_j / (e+1) scaled by D, the lcm of their denominators.
    """
    _extend_bernoulli(e)
    qs = [Fraction(math.comb(e + 1, j), e + 1) * _BERNOULLI[j] for j in range(e + 1)]
    den = math.lcm(*(q.denominator for q in qs))
    return den, [q.numerator * (den // q.denominator) for q in qs]


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
    if e == 2:
        return k * (k + 1) * (2 * k + 1) // 6
    if e == 3:
        return (k * (k + 1) // 2) ** 2
    den, coeffs = _faulhaber_coeffs(e)
    acc = 0
    for c in coeffs:
        acc = acc * k + c
    total, rem = divmod(acc * k, den)
    assert rem == 0
    return total


class _Memo(dict):
    """A dict whose missing key k reads as make(k, *args), made once and kept."""

    __slots__ = ("make", "args")

    def __init__(self, make: Callable, *args):
        self.make, self.args = make, args

    def __missing__(self, key):
        value = self[key] = self.make(key, *self.args)
        return value


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


# family -> (kind, the key of its one argument or None, the argument a bare
# family name takes, None where the argument is required)
_LSCSM_FAMILIES = {
    "phi-prefix": ("prefix", None, None),
    "psi-dyadic": ("psi", None, None),
    "phi-alpha": ("alpha", "a", None),
    "phi-infty": ("infty", "eps", "1/1000000"),
    "phi-infty-trunc": ("infty-trunc", "a", "4"),
    "counting": ("counting", None, None),
    "harmonic": ("harmonic", None, None),
    "geometric": ("geometric", None, None),
    "weighted": ("weighted", "f", None),
}


def get_lscsm(name: str) -> LscsmDescriptor:
    """The lscsm a name denotes: a family alone, or the family, `:` and its
    one `key=value`. Any other name raises KeyError; a bare name whose
    family has no default argument is one of them."""
    family, colon, arg = name.partition(":")
    kind, key, value = _LSCSM_FAMILIES.get(family, (None, None, None))
    if colon:
        given, _, value = arg.partition("=")
        if given != key or not value:
            kind = None
    if kind is None or (key is not None and value is None):
        raise KeyError(f"unknown lscsm {name!r}; have {list(LSCSM_NAMES)}")
    if kind == "alpha":
        try:
            a = int(value)
        except ValueError:
            raise KeyError(f"phi-alpha needs an integer exponent, got {value!r}; "
                           "non-integer exponents have no exact rational evaluation") from None
        if a < 0 or a > _MAX_EXACT_EXPONENT:
            raise KeyError(f"phi-alpha exponent must lie in [0, {_MAX_EXACT_EXPONENT}]")
        return LscsmDescriptor(f"phi-alpha:a={a}", kind, alpha=a)
    if kind == "infty-trunc":
        try:
            a = int(value)
        except ValueError:
            raise KeyError(f"phi-infty-trunc needs an integer depth, got {value!r}") from None
        # 2^a <= _MAX_EXACT_EXPONENT, compared without building 2^a
        if a < 0 or a >= _MAX_EXACT_EXPONENT.bit_length():
            raise KeyError("phi-infty-trunc depth too large for exact evaluation")
        return LscsmDescriptor(f"phi-infty-trunc:a={a}", kind, trunc=a)
    if kind == "infty":
        try:
            eps = _rational(value)
        except ValueError as e:
            raise KeyError(str(e)) from None
        if eps <= 0:
            raise KeyError("phi-infty needs eps > 0")
        return LscsmDescriptor(f"phi-infty:eps={value}", kind, eps=eps)
    if kind == "weighted":
        get_weight(value)  # validates the name
        return LscsmDescriptor(f"weighted:f={value}", kind, weight=value)
    return LscsmDescriptor(name, kind)


# ---------------------------------------------------------------------------
# finite-prefix evaluation: phi(A ∩ n)


def _runs(elements: Sequence[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive members >= 1, as (first, last) pairs (the
    element 0 carries no weight in a prefix ratio)."""
    runs: list[tuple[int, int]] = []
    for x in elements:
        if x < 1:
            continue
        if runs and x == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], x)
        else:
            runs.append((x, x))
    return runs


def _phi_alpha_elements(elements: Sequence[int], e: int,
                        power_sum: Optional[_Memo] = None) -> Fraction:
    """sup_k (sum_{i in S, i <= k} i^e) / (sum_{i <= k} i^e), S finite sorted.
    power_sum[k] stands in for faulhaber(k, e) where a caller keeps a memo.

    The ratio climbs inside a run of members and decays in the gaps, so run
    ends are the only candidates for the supremum. e = 0 is the plain prefix
    ratio |S ∩ [1,k]| / k: faulhaber(k, 0) = k, so int serves as F, and
    hi ** 0 = 1.
    """
    F = power_sum.__getitem__ if power_sum is not None else \
        int if e == 0 else lambda k: faulhaber(k, e)
    best_n, best_d = 0, 1
    num = 0
    for lo, hi in _runs(elements):
        den = F(hi)
        num += hi ** e if lo == hi else den - F(lo - 1)
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


def _weighted_elements(elements: Sequence[int], f: Callable[[int], Fraction]) -> Fraction:
    """sup_k (sum of f(i) over S ∩ [1,k]) / (sum of f(i) over [1,k]), S finite
    sorted; f >= 0, so the ratio falls after the last member."""
    members = set(elements)
    best = Fraction(0)
    num = den = Fraction(0)
    for i in range(1, elements[-1] + 1 if elements else 1):
        fi = Fraction(f(i))
        den += fi
        if i in members:
            num += fi
            if den > 0 and num * best.denominator > best.numerator * den:
                best = num / den
    return best


def _finite_value(desc: LscsmDescriptor, xs: Sequence[int]) -> Fraction:
    """phi(F) for a finite sorted F and every lscsm except phi-infty: the one
    evaluator of finite evidence, for prefixes A ∩ n and finite tails alike."""
    e = _prefix_exponent(desc)
    if e is not None:
        return _phi_alpha_elements(xs, e)
    if desc.kind == "psi":
        return _psi_elements(xs)
    if desc.kind == "infty-trunc":
        pairs, _ = _components(desc)
        return sum((w * _phi_alpha_elements(xs, e) for w, e in pairs), Fraction(0))
    if desc.kind == "weighted":
        return _weighted_elements(xs, get_weight(desc.weight).func)
    if desc.kind in ("counting", "harmonic", "geometric"):
        return _mass(desc.kind, xs)
    raise KeyError(f"no finite evaluation for lscsm kind {desc.kind!r}")


def lscsm_eval(desc: LscsmDescriptor | str, a: NatSet, n: int,
               config: Config = DEFAULT_CONFIG) -> ExtValue:
    """phi(A ∩ n), exact for the shipped catalog (phi-infty gets a bracket).

    A ∩ n is the prefix below n; horizon sets raise when n exceeds the
    evidence. Cost grows with the number of members below n.
    """
    if isinstance(desc, str):
        desc = get_lscsm(desc)
    if desc.kind == "infty":
        return phi_infty_eval(a, n, desc.eps, config)
    if desc.kind == "counting":
        return exact(Fraction(a.count_range(0, n)))
    return exact(_finite_value(desc, a.elements_in(0, n)))


# ---------------------------------------------------------------------------
# phi_infty with a certified truncation


def phi_infty_eval(a: NatSet, n: int, eps, config: Config = DEFAULT_CONFIG) -> ExtValue:
    """A certified bracket around phi_infty(A ∩ n) = sum_a 2^-a phi_{2^a}(A ∩ n):
    the tail evaluator applied to the finite set A ∩ [1, n). Its alpha
    components are exact while the exponent fits the power-sum budget and
    bounded by _infty_component_tail past it; the omitted terms a > a0
    widen the upper end by at most eps/2.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    prefix = FiniteSet(a.elements_in(1, n))
    return _tail(LscsmDescriptor("phi-infty", "infty", eps=eps), _TailScan(prefix, config), 0)


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


# ---------------------------------------------------------------------------
# tail evaluation: phi(A ∖ n)
#
# Tails feed the norm profiles, so exactness is spent where the backend
# allows it: eventually periodic sets get residue-class sweeps with
# deviation envelopes, block sets get slice-end scans against exact phase
# limits, horizon sets stay observational. Every cut of one norm reads its
# set through one _TailScan, so work that does not depend on the cut is done
# once per norm.


class _BlockWeights:
    """Prefix weights P(x) = sum of i^e over the members 1 <= i <= x of a
    block set, for one exponent e, from per-block tables grown as far as a
    read reaches.

    Block j's rule members are its slice [2^j, s_j). The tables hold s_j,
    rule[j] (the rule weight of the blocks below j), last[j] = F(s_j - 1),
    or None for an empty slice, and at_end[j] = P(s_j - 1). F is the scan's
    power-sum memo of e (power_sum[k] = faulhaber(k, e)), so each F(k) is
    computed once per norm. A point inside a slice weighs rule[j + 1] -
    last[j] + F(x). The signed exceptions add their own prefix sums; without
    them at_end holds the same integers as rule.
    """

    def __init__(self, a: DyadicBlockSet, e: int, power_sum: _Memo):
        self.a, self.e, self.power_sum = a, e, power_sum
        self.ends, self.rule, self.last, self.at_end = [], [0], [], []
        top = max(a.extras[-1:] + a.removals[-1:], default=0)
        exc = sorted(_signed_exceptions(a, 1, top + 1))
        self._exc_at = [x for x, _ in exc]
        self._exc_sum = list(accumulate((sign * x ** e for x, sign in exc), initial=0))

    def grow(self, j: int):
        """Extend the tables through block j."""
        ends, last, rule, F = self.ends, self.last, self.rule, self.power_sum
        for i in range(len(ends), j + 1):
            lo = 1 << i
            s = lo + self.a.slice_len(i)
            top = F[s - 1] if s > lo else None
            ends.append(s)
            last.append(top)
            rule.append(rule[-1] if top is None else rule[-1] + top - F[lo - 1])
            exc = self.exceptions_to(s - 1)
            self.at_end.append(rule[-1] + exc if exc else rule[-1])

    def exceptions_to(self, x: int) -> int:
        """The signed exception weight at points <= x."""
        return self._exc_sum[bisect_right(self._exc_at, x)] if self._exc_at else 0

    def prefix(self, x: int) -> int:
        """P(x)."""
        if x < 1:
            return 0
        j = x.bit_length() - 1
        self.grow(j)
        if x >= self.ends[j] - 1:  # past the slice, or at its end
            w = self.rule[j + 1]
        elif x == 1 << j:  # the slice's first member alone
            w = self.rule[j] + (1 << (j * self.e))
        else:
            w = self.rule[j + 1] - self.last[j] + self.power_sum[x]
        return w + self.exceptions_to(x)


def _closing(limits: list[Fraction], cycle: Sequence[Fraction],
             e: int) -> tuple[Fraction, list[Fraction], Fraction]:
    """The cut-free parts of a cyclic block set's phi_e envelope (see
    _block_alpha_tail): the top phase limit; per phase q the geometric ideal
    limits[q] (1+c_q)^{e+1} / (e+1), whose 2^{j(e+1)} multiple is the
    phase-q slice-end weight G_q + g_q; and the envelope's rounding spread."""
    max_lim = max(limits)
    c_e = 6 * 2 ** e
    spread = (e + 1) * (2 * c_e + 3 * (e + 1) * 4 ** e * max_lim) if e else 3 * max_lim
    return max_lim, [lim * (1 + c) ** (e + 1) / (e + 1)
                     for lim, c in zip(limits, cycle)], spread


class _TailScan:
    """What the tails phi(A ∖ n) of one set share across the cuts n.

    exhaustive_norm makes one for its set and reads every profile cut
    through it; tail_value makes one for its single cut, so both run the
    same code. It lives for one call and holds fin = natset.finite_part(A),
    an eventually periodic set's members over the windows read so far, and
    _Memo tables: power_sums[e][k] = faulhaber(k, e), read by a block set's
    block_weights[e] (_BlockWeights) and by alpha_ratio; a block set's
    phase_limits[e] and closing[e] (_closing); and block_count[j] = |A ∩
    [2^j, 2^{j+1})|. No memo refers to the scan, so reference counting
    frees it.
    """

    def __init__(self, a: NatSet, config: Config):
        self.a, self.config = a, config
        self.fin = finite_part(a)
        power_sums = self.power_sums = _Memo(lambda e: _Memo(faulhaber, e))
        phase_limits = self.phase_limits = _Memo(
            lambda e: _alpha_block_phase_limits(a.fill, e))
        self.block_weights = _Memo(lambda e: _BlockWeights(a, e, power_sums[e]))
        self.closing = _Memo(lambda e: _closing(phase_limits[e], a.fill.cycle, e))
        self.block_count = _Memo(lambda j: a.count_range(1 << j, 2 << j))
        self._xs: list[int] = []
        self._span = (1, 0)  # the members in [lo, hi] are self._xs

    def members(self, lo: int, hi: int) -> list[int]:
        """The members of A in [lo, hi], 1 <= lo: a window above the one
        held, and not further past it than its own length, extends it by one
        elements_in read; any other is read afresh."""
        held_lo, held_hi = self._span
        if not held_lo <= lo <= held_hi + 1 + (hi - lo):
            self._xs, held_lo, held_hi = [], lo, lo - 1
        if hi > held_hi:
            self._xs += self.a.elements_in(held_hi + 1, hi + 1)
            held_hi = hi
        self._span = (held_lo, held_hi)
        xs = self._xs
        return xs[bisect_left(xs, lo):bisect_right(xs, hi)]

    def alpha_ratio(self, lo: int, hi: int, e: int) -> Fraction:
        """phi_e of the members in [lo, hi], 1 <= lo."""
        return _phi_alpha_elements(self.members(lo, hi), e, self.power_sums[e] if e else None)


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


def _phi_alpha_tail(scan: _TailScan, n: int, e: int) -> ExtValue:
    """phi_alpha(A ∖ n); e = 0 is phi-prefix (and weighted:f=constant)."""
    a = scan.a
    if isinstance(a, HorizonSet):
        return observational(_phi_alpha_elements(a.elements_in(max(n, 1), a.horizon), e),
                             "weighted prefix ratios within the horizon only" if e else
                             "prefix ratios within the horizon; the supremum also "
                             "ranges over unknown tail members")
    if isinstance(a, DyadicBlockSet):
        return _block_alpha_tail(scan, n, e)
    if isinstance(a, (PeriodicSet, APUnionSet)):
        d = a.density()
        start = max(n, 1)
        b = _deviation_bound(a)
        if e == 0:
            m = a.period(scan.config.window_sweep_budget)
            if m is not None:
                # the ratio at k is d + (g(k mod m) - c0)/k past the threshold,
                # so each residue class peaks at its first k; one period suffices
                return exact(max(d, scan.alpha_ratio(start, max(n, a.threshold, 1) + m, 0)))
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
        best = scan.alpha_ratio(start, w_end, e)
        if best >= env:
            return exact(best)
        return bracket(max(best, d), max(best, env), note)
    raise UnsupportedBackend(f"{'weighted' if e else 'prefix'} tail unsupported "
                             f"for backend {a.kind}")


def _block_alpha_tail(scan: _TailScan, n: int, e: int) -> ExtValue:
    """phi_alpha(A ∖ n) on a block set.

    Candidates sit at run ends (slice ends, extras, points before removals);
    the ratio climbs inside runs and decays across gaps. For cyclic fills the
    slice-end ratios converge geometrically to the phase limits, and beyond
    the scanned window |ratio_M - limit| <= delta with the explicit envelope
    computed below, so sup = max(scan, phase limits) within delta. Vanishing
    fills get an envelope that dies with the fill, closing the scan exactly.
    Ratios are compared as integer pairs; one Fraction is built per cut.
    """
    a = scan.a
    fill = a.fill
    w = scan.block_weights[e]
    start = max(n, 1)
    cut_block = start.bit_length() - 1
    exc_top = max([x.bit_length() for x in a.extras]
                  + [x.bit_length() for x in a.removals] + [0])
    base = w.prefix(start - 1)  # the tail weight over [start, k] is P(k) - base
    w.grow(cut_block)
    # candidates off the slice ends, each listed by one block: the cut
    # itself inside its slice, extras, and the point before each removal
    # (listed by the removal's block)
    others = sorted({(x.bit_length() - 1, x) for x in a.extras if x >= start}
                    | {(x.bit_length() - 1, x - 1) for x in a.removals if x - 1 >= start}
                    | ({(cut_block, start)} if start < w.ends[cut_block] else set()))

    # every slice end from the cut's block on lies past the cut, but the
    # cut's own may not
    first = cut_block + 1 if w.ends[cut_block] <= start else cut_block

    def best_over(j_lo: int, j_hi: int, best: tuple[int, int]) -> tuple[int, int]:
        """The largest ratio, as (num, den), of `best` and the candidates
        listed by blocks j_lo..j_hi."""
        bn, bd = best
        w.grow(j_hi)
        j = max(j_lo, first)
        for num, den in zip(w.at_end[j:j_hi + 1], w.last[j:j_hi + 1]):
            if den is not None:
                num -= base
                if num > 0 and num * bd > bn * den:
                    bn, bd = num, den
        for _, k in others[bisect_left(others, (j_lo,)):bisect_left(others, (j_hi + 1,))]:
            num, den = w.prefix(k) - base, w.power_sum[k]
            if num > 0 and num * bd > bn * den:
                bn, bd = num, den
        return bn, bd

    if fill.structure == "vanishing":
        best = (0, 1)
        env = None  # the last envelope, as (cum, j): Fraction(1) until one is made
        j = cut_block
        j_cap = cut_block + 4096
        j_pure = max(fill.threshold, exc_top + 1, cut_block + 2, e.bit_length() + 2)
        # any later ratio is at most (e+1) [ N(j)/2^{j(e+1)}
        #   + f(j) 2^{2e+1}/(2^{e+1}-1) + rounding slack ]
        fill_factor = Fraction(2 ** (2 * e + 1), 2 ** (e + 1) - 1)
        slack = Fraction(2 ** (2 * e + 1), 2 ** e - 1 if e > 1 else 1)

        def envelope_rest(j: int) -> Fraction:
            term3 = slack * Fraction(1, 2 ** j) if e else Fraction(j + 2, 2 ** (j + 1))
            return fill.value(j) * fill_factor + term3

        while j <= j_cap:
            chunk_hi = min(j + 16, j_cap)
            best = best_over(j, chunk_hi, best)
            j = chunk_hi + 1
            if j <= j_pure:
                continue
            # N(j), the tail weight through 2^j; env < best in integers:
            # (e+1) (cum/2^s + rest) < bn/bd, s = j(e+1)
            cum = w.prefix(1 << j) - base
            rest = envelope_rest(j)
            bn, bd = best
            s = j * (e + 1)
            if (e + 1) * (cum * rest.denominator + (rest.numerator << s)) * bd \
                    < (bn * rest.denominator) << s:
                return exact(Fraction(bn, bd))
            env = (cum, j)
        low = Fraction(*best)
        high = Fraction(1) if env is None else \
            (e + 1) * (Fraction(env[0], 2 ** (env[1] * (e + 1))) + envelope_rest(env[1]))
        return bracket(low, low + high, "scan cap reached before the envelope closed")

    # cyclic fill with a positive value (an all-zero cycle is finite)
    P = len(fill.cycle)
    j1 = max(cut_block + 1, fill.threshold, exc_top + 1, e.bit_length() + 1, 2)
    m_star = j1 + 44
    best = Fraction(*best_over(cut_block, m_star, (0, 1)))
    max_lim, ideals, spread = scan.closing[e]
    # K absorbs everything below the scan edge exactly; beyond it each slice
    # weight differs from its geometric ideal by at most C_e 2^{je}, C_e = 6*2^e
    q_star = (m_star - fill.threshold) % P
    phi_star = ideals[q_star] * (1 << (m_star * (e + 1)))
    kcorr = abs(w.prefix((1 << (m_star + 1)) - 1) - base - phi_star)
    m0 = m_star + 1
    if e:
        delta = (e + 1) * kcorr / (1 << (m0 * (e + 1))) + spread / (1 << m0)
    else:
        delta = (kcorr + spread) / (1 << m0) + Fraction(3 * 6, 1 << m_star)  # 3 C_0
    if best >= max_lim + delta:
        return exact(best)
    return bracket(max(best, max_lim), max(best, max_lim + delta),
                   "slice-end scan plus phase-limit envelope")


def _psi_scan(scan: _TailScan, n: int, j_lo: int, j_hi: int) -> Fraction:
    """max of |(A ∖ n) ∩ I_j| / 2^j over the blocks j_lo <= j <= j_hi (0 if
    none). A block wholly past the cut reads the scan's count; only the
    block the cut splits is counted for this cut alone."""
    best_c, best_j = 0, 0
    for j in range(j_lo, j_hi + 1):
        lo = max(1 << j, n)
        if lo < 2 << j:
            c = scan.block_count[j] if lo == 1 << j else scan.a.count_range(lo, 2 << j)
            if c << best_j > best_c << j:
                best_c, best_j = c, j
    return Fraction(best_c, 1 << best_j)


def _psi_tail(scan: _TailScan, n: int) -> ExtValue:
    a = scan.a
    if isinstance(a, HorizonSet):
        return observational(_psi_elements(a.elements_in(max(n, 1), a.horizon)),
                             "block ratios within the horizon only")
    if isinstance(a, DyadicBlockSet):
        return _psi_tail_blocks(scan, n)
    if isinstance(a, (PeriodicSet, APUnionSet)):
        return _psi_tail_eventually_periodic(scan, n)
    raise UnsupportedBackend(f"dyadic-block tail unsupported for backend {a.kind}")


def _psi_tail_blocks(scan: _TailScan, n: int) -> ExtValue:
    a = scan.a
    fill = a.fill
    j0 = max(n, 1).bit_length() - 1
    exc_top = max([x.bit_length() for x in a.extras]
                  + [x.bit_length() for x in a.removals] + [0])
    if fill.structure == "vanishing":
        # from block j_env on: |A ∩ I_j|/2^j <= f_j + 2^-(j+1), f nonincreasing
        j_cap = j0 + 4096
        j_env = max(j0 + 1, exc_top, fill.threshold) + 1
        best = _psi_scan(scan, n, j0, min(j_env, j_cap) - 1)
        env = Fraction(1)
        for j in range(j_env, j_cap):
            best = max(best, _psi_scan(scan, n, j, j))
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
        return exact(max(_psi_scan(scan, n, j0, pre + P * max(orders) + 1), max_c))
    scan_to = pre + 4096
    best = _psi_scan(scan, n, j0, scan_to)
    return bracket(max(best, max_c), max(best, max_c + Fraction(1, 2 ** scan_to)),
                   "rounding period beyond the order cap")


def _psi_tail_eventually_periodic(scan: _TailScan, n: int) -> ExtValue:
    a = scan.a
    d = a.density()
    m = a.period(scan.config.window_sweep_budget)
    j0 = max(n, 1).bit_length() - 1
    j_pure = max(j0, a.threshold.bit_length())
    order = _mult_order_2(m, 4096) if m is not None else None
    if order is not None:
        # |A ∩ I_j|/2^j = d + g(2^j mod m)/2^j: the residue class of 2^j
        # cycles, so positive deviations peak at their first occurrence
        v2 = (m & -m).bit_length() - 1
        return exact(max(d, _psi_scan(scan, n, j0, j_pure + v2 + order + 1)))
    scan_to = j_pure + 64
    best = _psi_scan(scan, n, j0, scan_to)
    b = _deviation_bound(a)
    return bracket(max(d, best), max(best, d + Fraction(2 * b, 2 ** scan_to)),
                   "residue cycle beyond the order cap; deviation-bounded")


def _weighted_tail(a: NatSet, n: int) -> ExtValue:
    d = eventual_density(a)
    if d is not None:
        return bracket(d, 1, "weighted supremum has no closed form; "
                             "bracketed by [density, 1]")
    return bracket(0, 1, "weighted supremum has no closed form on this backend")


_INFTY_EXACT_TAIL_EXPONENT = 16

# The largest member of a finite tail that a weighted tail reads exactly: a
# weighted scan of 4096 positions takes about 0.1 s.
_FINITE_SCAN_MAX = 4096


def _infty_component_tail(a: NatSet, n: int, e: int, config: Config) -> ExtValue:
    """phi_{e}(A ∖ n) for large exponents inside the phi-infty sum: cheap
    certified bounds instead of exact sweeps."""
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
        # the ratio at k0 alone is at least 1 - (k0-1)((k0-1)/k0)^e, and
        # (1 - 1/k0)^k0 < 1/2 bounds the power by 2^-(e // k0)
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
    """phi(A ∖ n): exact on finite tails (see the module docstring), else
    exact or bracketed per backend, observational on horizons."""
    if isinstance(desc, str):
        desc = get_lscsm(desc)
    return _tail(desc, _TailScan(a, config), n)


def _tail(desc: LscsmDescriptor, scan: _TailScan, n: int) -> ExtValue:
    """phi(A ∖ n) for the scan's set A: tail_value for one cut of many."""
    a, config = scan.a, scan.config
    if desc.kind in ("counting", "harmonic", "geometric"):
        return _additive(desc.kind, a if scan.fin is None else scan.fin, n)
    tail = None if scan.fin is None else drop_below(scan.fin, n).elements
    if tail is not None and not tail:
        return exact(0)  # every lscsm, phi-infty too, is 0 on the empty set
    if tail is not None and desc.kind != "infty" and not (
            desc.kind == "weighted" and desc.weight != "constant"
            and tail[-1] > _FINITE_SCAN_MAX):
        return exact(_finite_value(desc, tail))
    e = _prefix_exponent(desc)
    if e is not None:
        return _phi_alpha_tail(scan, n, e)
    if desc.kind == "psi":
        return _psi_tail(scan, n)
    if desc.kind in ("infty", "infty-trunc"):
        pairs, rest = _components(desc)
        parts = [(w, exact(_phi_alpha_elements(tail, e))
                  if tail is not None and e <= _MAX_EXACT_EXPONENT
                  else _phi_alpha_tail(scan, n, e) if e <= _INFTY_EXACT_TAIL_EXPONENT
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
    if desc.kind == "weighted":
        return _weighted_tail(a, n)
    raise KeyError(f"unknown lscsm kind {desc.kind!r}")


# ---------------------------------------------------------------------------
# exhaustive norms


def _norm_value(desc: LscsmDescriptor, scan: _TailScan) -> ExtValue:
    kind, a = desc.kind, scan.a

    if kind == "geometric":
        return exact(0)  # residual mass beyond n is below 2^-n for every set

    if scan.fin is not None:
        return exact(0)  # finite sets vanish at infinity under every lscsm

    if isinstance(a, HorizonSet):
        if kind in ("counting", "harmonic"):
            return bracket(0, None, "tail behaviour beyond the horizon is unknown")
        t = _tail(desc, scan, a.horizon // 2)
        if t.status == "bracket":
            # tails shrink as the cut grows: this one's upper end bounds the
            # limit, its lower end need not
            return bracket(0, t.upper, t.note)
        return observational(t.value, "horizon evidence cannot certify a limit")

    if kind in ("counting", "harmonic"):
        t = _additive(kind, a)
        if t.status == "infinite":
            return infinite()  # every tail of an infinite total is infinite
        if t.upper is not None:
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
        return exact(d if d is not None else max(scan.phase_limits[e]))

    pairs, rest = _components(desc)
    if d is not None:
        # every alpha-component norm equals the density (2d for the full sum)
        return exact(d * (sum(w for w, _ in pairs) + rest))
    lo = hi = Fraction(0)
    c_min = min(a.fill.cycle)
    for w, e in pairs:
        if e <= 8192:
            v = max(scan.phase_limits[e])
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
    backends for the shipped catalog; on horizon sets it is observational,
    or a bracket where every tail is bracketed, and the profile stops at the
    horizon.
    """
    if isinstance(desc, str):
        desc = get_lscsm(desc)
    scan = _TailScan(a, config)  # every cut reads the set through it
    value = _norm_value(desc, scan)
    profile: list[tuple[int, Fraction]] = []
    if value.status in ("exact", "bracket"):
        cuts = list(profile_cuts) if profile_cuts is not None else _profile_cuts(desc, a)
        prev: Optional[Fraction] = None
        for ncut in cuts:
            if isinstance(a, HorizonSet) and ncut >= a.horizon:
                break
            t = _tail(desc, scan, ncut)
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
    v = exhaustive_norm(desc, a, config, profile_cuts=()).value
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
                       eval_fn: Optional[Callable[[NatSet, int], ExtValue]] = None) -> AxiomReport:
    """phi(∅) = 0, monotone, subadditive, finite on finite sets, and
    nondecreasing in the prefix length, all checked with exact arithmetic at
    the probe horizon 96 (and at 24 and 48 for the prefix law). Pass eval_fn
    to audit a foreign (possibly broken) functional with the same battery.
    Each set is evaluated at most once per probe length."""
    probe_n = 96
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
