"""The three benchmark workloads: seeded inputs, timed ops and their oracles.

Every workload is a closed loop with one client and no think time. A run is
a sequence of rounds. Each round has the same composition (the same strata,
in the same proportions) and fresh inputs drawn from the seed and the round
index, so a faster program runs more rounds of the same mix rather than a
different mix. Round 0 is the reference round: its rendered outputs are
hashed for the digest check and it is the round the traced run replays.
`round(r, seed)` draws a round for another seed; set-up uses that to warm up
on the same inputs whatever the run's seed.

An op is a `Op(label, run, check)`: `run()` is the timed call into densitas
and returns the op's output; `check(output)` is untimed and returns
`(ok, rendered_bytes)`. Oracles are the benchmark's own closed forms and
brute counts; densitas is never checked against itself.

densitas is imported lazily through `load(workload)`, so importing this file
does not import the library.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

WORKLOADS = ("queries", "axioms", "agreement")
FUNCTIONALS = ("d-star", "bd-star", "buck")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, bytes]]
    warm: bool = False


def shuffled(ops: list[Op], rng: random.Random) -> list[Op]:
    """Mark the first op of each label (in generation order) as a warm-up op,
    then shuffle the round."""
    seen = set()
    for op in ops:
        op.warm = op.label not in seen
        seen.add(op.label)
    rng.shuffle(ops)
    return ops


def frac(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def round_rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"densitas-bench:{workload}:{seed}:{round_index}")


def _nat_list(xs) -> str:
    return "{" + ",".join(str(x) for x in xs) + "}"


def _divisors(n: int, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(d for d in range(lo, hi + 1) if n % d == 0)


def _window_max(bits: Sequence[int], width: int, start: int = 0) -> int:
    """Largest member count of a length-`width` window starting at or after
    `start` and ending inside `bits`."""
    if len(bits) - start < width:
        return 0
    cur = sum(bits[start:start + width])
    best = cur
    for k in range(start + 1, len(bits) - width + 1):
        cur += bits[k + width - 1] - bits[k - 1]
        if cur > best:
            best = cur
    return best


# ---------------------------------------------------------------------------
# queries: argv through densitas.cli.main


# Moduli for periodic literals; every pair has lcm <= 2520, which keeps the
# pairwise dist ops on the light path.
_PER_MODULI = _divisors(2520, 6, 360)
# AP-union moduli, factorial labels included; all divide 7! = 5040.
_AP_MODULI = ("4!", "5!", "6!", "7!", "12", "30", "36", "84", "90", "180",
              "360", "840", "1260", "2520")


def _ap_value(text: str) -> int:
    return math.factorial(int(text[:-1])) if text.endswith("!") else int(text)


@dataclass
class CliOutput:
    rc: int
    out: str
    err: str


def _cli_runner(cli, argv: list[str]) -> Callable[[], CliOutput]:
    def run() -> CliOutput:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return CliOutput(rc, out.getvalue(), err.getvalue())
    return run


def _rendered(res: CliOutput) -> bytes:
    return f"rc={res.rc}\n{res.out}".encode()


def _value_check(fmt: str, want: str, kind: str) -> Callable[[CliOutput], tuple[bool, bytes]]:
    """Checker for eval/dist/norm: the rendered value must equal `want`."""
    def check(res: CliOutput) -> tuple[bool, bytes]:
        ok = res.rc == 0
        if ok and fmt == "text":
            ok = res.out == want + "\n"
        elif ok:
            rep = json.loads(res.out)["report"]
            val = rep["value"] if kind == "norm" else rep
            ok = ("infinity" if val["status"] == "infinite" else val["value"]) == want
        return ok, _rendered(res)
    return check


class _PerLit:
    """A periodic literal and its closed-form density len(R)/m."""

    def __init__(self, rng: random.Random, moduli=_PER_MODULI, max_res=12):
        self.m = rng.choice(moduli)
        k = rng.randint(1, min(self.m - 1, max_res))
        self.R = sorted(rng.sample(range(self.m), k))
        self.t = rng.choice((0, 0, rng.randint(1, 120)))
        self.text = f"per m={self.m} R={_nat_list(self.R)}" + (f" t={self.t}" if self.t else "")
        self.density = Fraction(len(self.R), self.m)

    def rule(self, n: int) -> bool:
        return n % self.m in self.R


class _ApLit:
    """An AP-union literal with factorial moduli; density by brute count over
    one full period beyond the largest start."""

    def __init__(self, rng: random.Random, terms: int):
        parts, self.terms = [], []
        for a_text in rng.sample(_AP_MODULI, terms):
            a = _ap_value(a_text)
            h, j0 = rng.randrange(a), rng.randint(0, 2)
            parts.append(f"ap a={a_text} h={h} j0={j0}")
            self.terms.append((a, h, j0))
        self.text = " | ".join(parts)
        L = math.lcm(*(a for a, _, _ in self.terms))
        hits = set()
        for a, h, _ in self.terms:
            hits.update(range(h, L, a))
        self.density = Fraction(len(hits), L)


def _block_alpha_limit(c: Fraction, e: int) -> Fraction:
    """Eventual slice-end ratio of phi_e on a constant-fill block set:
    g Q / ((Q - 1)(1 + c)^(e+1)), g = (1 + c)^(e+1) - 1, Q = 2^(e+1)."""
    if c == 0:
        return Fraction(0)
    q = Fraction(2 ** (e + 1))
    g = (1 + c) ** (e + 1) - 1
    return g * q / ((q - 1) * (1 + c) ** (e + 1))


def _block_fill(rng: random.Random) -> tuple[str, Fraction]:
    if rng.random() < 0.5:
        k = rng.randint(1, 7)
        return f"2^-{k}", Fraction(1, 2 ** k)
    q = rng.choice((3, 5, 7, 9, 10, 12, 16))
    p = rng.randint(1, q)
    return f"{p}/{q}", Fraction(p, q)


def _horizon_lit(rng: random.Random) -> tuple[str, list[int], int]:
    H = rng.choice((64, 128, 256, 512))
    density = rng.choice((0.1, 0.25, 0.5, 0.75))
    bits = [1 if rng.random() < density else 0 for _ in range(H)]
    word = sum(1 << i for i, b in enumerate(bits) if b)
    return f"horizon H={H} bits={word:x}", bits, H


def _horizon_expect(functional: str, bits: list[int], H: int) -> str:
    if functional == "d-star":
        cap = min(100_000, H - 1)
        val = Fraction(sum(bits[1:cap + 1]), cap)
    else:
        n = 1
        while n * 2 <= min(16_384, H // 2):
            n *= 2
        val = Fraction(_window_max(bits, n), n)
    return f"~{frac(val)} (observational)"


class Queries:
    """The interactive CLI user: one argv per op through densitas.cli.main.

    Per round of ROUND_OPS ops: closed-form eval/dist/norm requests on all
    five literal backends, a medium tier of block norms, a heavy tier of
    block phi-alpha / phi-infty-trunc norms (the exhaust tail path), and a
    minority of limit, witness build and witness verify requests.
    """

    name = "queries"
    HOTSPOT = ("exhaust.",)
    # stratum -> ops per round (sums to ROUND_OPS)
    STRATA = {
        "eval-per": 95, "eval-ap": 45, "eval-blocks": 30, "eval-fin": 25,
        "eval-horizon": 25, "eval-counting": 15, "dist-per": 95,
        "dist-fin-per": 30, "norm-per-psi": 23, "norm-per-prefix": 10,
        "norm-per-alpha": 12, "norm-per-trunc": 15, "norm-blocks-psi": 30,
        "norm-blocks-prefix": 5, "norm-blocks-alpha1": 5,
        "norm-blocks-alpha2": 9, "norm-blocks-trunc": 3,
        "limit": 10, "witness-build": 9, "witness-verify": 9,
    }
    ROUND_OPS = sum(STRATA.values())
    KAPPAS = ("1/2", "1/3", "2/3", "1/4")
    DEPTHS = (1, 2, 3, 4)

    def __init__(self, dsx, seed: int, workdir: str):
        self.cli = dsx.cli
        self.seed = seed
        self.workdir = workdir
        self.reports = {}

    def setup(self):
        """Write the witness reports the verify requests read."""
        os.makedirs(self.workdir, exist_ok=True)
        for kappa in self.KAPPAS:
            for depth in self.DEPTHS:
                path = os.path.join(self.workdir, f"witness-{kappa.replace('/', '_')}-{depth}.json")
                res = _cli_runner(self.cli, ["witness", "build", "--kappa", kappa, "--depth",
                                             str(depth), "--format", "json", "--out", path])()
                if res.rc != 0:
                    raise RuntimeError(f"witness build failed: {res.err}")
                self.reports[(kappa, depth)] = path

    def round(self, r: int, seed: Optional[int] = None) -> list[Op]:
        rng = round_rng(self.name, self.seed if seed is None else seed, r)
        ops = []
        for stratum, count in self.STRATA.items():
            make = getattr(self, "_" + stratum.replace("-", "_"))
            for _ in range(count):
                op = make(rng)
                op.label = stratum
                ops.append(op)
        return shuffled(ops, rng)

    def _op(self, argv, check) -> Op:
        return Op(argv[0], _cli_runner(self.cli, argv), check)

    def _value_op(self, rng, verb_args, want, kind="value") -> Op:
        fmt = "json" if rng.random() < 0.25 else "text"
        return self._op(verb_args + ["--format", fmt], _value_check(fmt, want, kind))

    def _eval_per(self, rng):
        p = _PerLit(rng)
        return self._value_op(rng, ["eval", rng.choice(FUNCTIONALS), p.text], frac(p.density))

    def _eval_ap(self, rng):
        a = _ApLit(rng, rng.randint(1, 3))
        return self._value_op(rng, ["eval", rng.choice(FUNCTIONALS), a.text], frac(a.density))

    def _eval_blocks(self, rng):
        lit, c = _block_fill(rng)
        fn = rng.choice(FUNCTIONALS)
        want = _block_alpha_limit(c, 0) if fn == "d-star" else Fraction(1 if c else 0)
        return self._value_op(rng, ["eval", fn, f"blocks f(n)={lit}"], frac(want))

    def _eval_fin(self, rng):
        xs = sorted(rng.sample(range(1, 400), rng.randint(1, 12)))
        return self._value_op(rng, ["eval", rng.choice(FUNCTIONALS), "fin" + _nat_list(xs)], "0")

    def _eval_horizon(self, rng):
        lit, bits, H = _horizon_lit(rng)
        fn = rng.choice(("d-star", "bd-star"))
        want = _horizon_expect(fn, bits, H)
        return self._op(["eval", fn, lit], _value_check("text", want, "value"))

    def _eval_counting(self, rng):
        if rng.random() < 0.5:
            xs = sorted(rng.sample(range(0, 400), rng.randint(1, 12)))
            return self._value_op(rng, ["eval", "counting", "fin" + _nat_list(xs)], str(len(xs)))
        return self._value_op(rng, ["eval", "counting", _PerLit(rng).text], "infinity")

    def _dist_per(self, rng):
        a, b = _PerLit(rng), _PerLit(rng)
        L = math.lcm(a.m, b.m)
        sym = sum(1 for x in range(L) if a.rule(x) != b.rule(x))
        return self._value_op(rng, ["dist", rng.choice(FUNCTIONALS), a.text, b.text],
                              frac(Fraction(sym, L)))

    def _dist_fin_per(self, rng):
        xs = sorted(rng.sample(range(0, 300), rng.randint(1, 10)))
        p = _PerLit(rng)
        return self._value_op(rng, ["dist", rng.choice(FUNCTIONALS), "fin" + _nat_list(xs), p.text],
                              frac(p.density))

    def _norm_per(self, rng, lscsm):
        p = _PerLit(rng)
        return self._value_op(rng, ["norm", lscsm, p.text], frac(p.density), "norm")

    def _norm_per_psi(self, rng):
        return self._norm_per(rng, "psi-dyadic")

    def _norm_per_prefix(self, rng):
        return self._norm_per(rng, "phi-prefix")

    def _norm_per_alpha(self, rng):
        return self._norm_per(rng, f"phi-alpha:a={rng.randint(1, 3)}")

    def _norm_per_trunc(self, rng):
        p = _PerLit(rng, max_res=6)
        k = rng.randint(1, 2)
        want = p.density * (2 - Fraction(1, 2 ** k))
        return self._value_op(rng, ["norm", f"phi-infty-trunc:a={k}", p.text], frac(want), "norm")

    def _norm_blocks(self, rng, lscsm, want):
        lit, c = _block_fill(rng)
        return self._value_op(rng, ["norm", lscsm, f"blocks f(n)={lit}"], frac(want(c)), "norm")

    def _norm_blocks_psi(self, rng):
        return self._norm_blocks(rng, "psi-dyadic", lambda c: c)

    def _norm_blocks_prefix(self, rng):
        return self._norm_blocks(rng, "phi-prefix", lambda c: _block_alpha_limit(c, 0))

    def _norm_blocks_alpha1(self, rng):
        return self._norm_blocks(rng, "phi-alpha:a=1", lambda c: _block_alpha_limit(c, 1))

    def _norm_blocks_alpha2(self, rng):
        return self._norm_blocks(rng, "phi-alpha:a=2", lambda c: _block_alpha_limit(c, 2))

    def _norm_blocks_trunc(self, rng):
        return self._norm_blocks(rng, "phi-infty-trunc:a=1", lambda c: (
            _block_alpha_limit(c, 1) + _block_alpha_limit(c, 2) / 2))

    _LIMITS = (
        (["limit", "sigma", "multiples"], 3),
        (["limit", "sigma", "evens"], 2),
        (["limit", "cauchy", "multiples"], 3),
        (["limit", "cauchy", "evens"], 2),
        (["limit", "tail-cut", "powers", "--measure", "norm:phi-prefix"], None),
    )

    def _limit(self, rng):
        argv, modulus = rng.choice(self._LIMITS)
        argv = argv + ["--depth", str(rng.randint(4, 12)), "--format", "json"]

        def check(res):
            ok = res.rc == 0
            if ok:
                rep = json.loads(res.out)["report"]
                lim = rep["limit"]
                ok = rep["verdict"] == "certified" and (
                    lim == {"elements": []} if modulus is None else
                    (lim["modulus"], lim["residues"]) == (modulus, [0]))
            return ok, _rendered(res)
        return self._op(argv, check)

    def _witness_build(self, rng):
        kappa, depth = rng.choice(self.KAPPAS), rng.choice(self.DEPTHS)

        def check(res):
            ok = res.rc == 0
            if ok:
                rep = json.loads(res.out)["report"]
                levels = rep["levels"]
                ok = (rep["params"]["kappa"] == kappa and len(levels) == depth + 2
                      and all(lv["residues"] == [math.comb(i, 2) + j for j in range(i)]
                              for i, lv in enumerate(levels)))
            return ok, _rendered(res)
        return self._op(["witness", "build", "--kappa", kappa, "--depth", str(depth),
                         "--format", "json"], check)

    def _witness_verify(self, rng):
        key = (rng.choice(self.KAPPAS), rng.choice(self.DEPTHS))
        horizon = rng.choice((10 ** 3, 10 ** 4, 10 ** 5))

        def check(res):
            ok = res.rc == 0
            if ok:
                rep = json.loads(res.out)["report"]
                ok = rep["invariants_passed"] is True and rep["cauchy_certified"] is True
            return ok, _rendered(res)
        return self._op(["witness", "verify", self.reports[key], "--horizon", str(horizon),
                         "--format", "json"], check)


# ---------------------------------------------------------------------------
# axioms: battery calls on chunks of three sets


class Axioms:
    """The battery user. Each op is one battery call on one chunk of three
    sets: the upper-density battery (shifts 1, 7, 100; dilations 2, 3, 5),
    the submeasure battery or the pseudometric battery, for each of d-star,
    bd-star and buck. Every check builds sets through boolean_op.

    The periodic chunks follow a fixed design: the moduli and residue counts
    of samples.pool_battery (bounded-lcm pool) under DESIGN_SEED. The seed
    draws the residues of every set, so each round has the same mix of lcm
    sizes, and the block chunks through samples.block_battery.
    """

    name = "axioms"
    HOTSPOT = ("natset.boolean_op",)
    PERIODIC_CHUNKS = 20
    BLOCK_CHUNKS = 4
    DESIGN_SEED = 20250123

    def __init__(self, dsx, seed: int, workdir: str):
        self.density, self.metric, self.samples = dsx.density, dsx.metric, dsx.samples
        self.natset = dsx.natset
        self.seed = seed
        self.design = [(s.modulus, len(s.residues)) for s in
                       self.samples.pool_battery(3 * self.PERIODIC_CHUNKS, self.DESIGN_SEED)]

    def setup(self):
        pass

    def round(self, r: int, seed: Optional[int] = None) -> list[Op]:
        rng = round_rng(self.name, self.seed if seed is None else seed, r)
        sets = [self.natset.PeriodicSet(m, tuple(rng.sample(range(m), k)))
                for m, k in self.design]
        chunks = list(self.samples.chunked(sets, 3))
        blocks = self.samples.block_battery(3 * self.BLOCK_CHUNKS, rng.getrandbits(63))
        chunks += list(self.samples.chunked(blocks, 3))
        ops = []
        for chunk in chunks:
            for fn in FUNCTIONALS:
                for battery in ("upper-density", "submeasure", "pseudometric"):
                    ops.append(self._op(battery, fn, chunk))
        return shuffled(ops, rng)

    def _op(self, battery: str, fn: str, chunk) -> Op:
        d, m = self.density, self.metric
        if battery == "upper-density":
            def run():
                return d.check_upper_density_axioms(fn, chunk, shifts=(1, 7, 100),
                                                    dilations=(2, 3, 5))
        elif battery == "submeasure":
            def run():
                return d.check_submeasure_axioms(fn, chunk)
        else:
            def run():
                return m.check_pseudometric(fn, [chunk])

        def check(rep):
            lines = [rep.subject] + [f"{r.name}|{r.status}|{r.detail}" for r in rep.records]
            return rep.passed, ("\n".join(lines) + "\n").encode()
        return Op(battery, run, check)


# ---------------------------------------------------------------------------
# agreement: exact values against brute counts from the read methods


@dataclass
class _Brute:
    """What the benchmark knows of one set: its literal, its own membership
    rule and a horizon for the scans. For the eventually periodic backends,
    `value` is the expected d-star = bd-star = buck, `window` the period and
    `window_from` the first point past every finite irregularity; block sets
    carry their fill rule instead."""

    kind: str
    text: str
    rule: Callable[[int], bool]
    horizon: int
    value: Optional[Fraction] = None
    window: int = 0
    window_from: int = 0
    fill: Optional[Callable[[int], Fraction]] = None


# Each stratum cycles through a fixed size design by op index i; the seed
# draws the contents. Read counts per op then depend on the design only.


def _agree_finite(rng, i):
    n = 17 + 20 * (i % 8)
    xs = sorted(rng.sample(range(3000), n))
    s = set(xs)
    return _Brute("finite", "fin" + _nat_list(xs), s.__contains__, xs[-1] + 257,
                  Fraction(0), 256, xs[-1] + 1)


def _agree_periodic(rng, i):
    m = (12, 24, 36, 60, 90, 120, 180, 240)[i % 8]
    R = sorted(rng.sample(range(m), max(1, m * (1 + (i // 8) % 3) // 6)))
    rs = set(R)
    t = rng.randint(0, 200)
    below = range(t)
    added = sorted(x for x in below if x % m not in rs and rng.random() < 0.05)
    removed = sorted(x for x in below if x % m in rs and rng.random() < 0.2)
    text = f"per m={m} R={_nat_list(R)} t={t}"
    if added:
        text += f" add={_nat_list(added)}"
    if removed:
        text += f" rm={_nat_list(removed)}"
    add_s, rm_s = set(added), set(removed)

    def rule(n):
        return n in add_s or (n % m in rs and n not in rm_s)
    periods = max(2, 3000 // m)
    d = Fraction(len(R), m)
    return _Brute("periodic", text, rule, t + periods * m, d, m, t)


# all divide 7! = 5040, so every union is periodic with a period dividing it
_AGREE_AP_MODULI = ("4!", "5!", "6!", "12", "18", "30", "36", "40", "60", "84",
                    "90", "180", "360")
_AGREE_AP_SPAN = 2 * 5040


def _agree_ap(rng, i):
    terms, parts = [], []
    for a_text in rng.sample(_AGREE_AP_MODULI, 1 + i % 4):
        a = _ap_value(a_text)
        h, j0 = rng.randrange(a), rng.randint(0, 3)
        parts.append(f"ap a={a_text} h={h} j0={j0}")
        terms.append((a, h, j0))
    L = math.lcm(*(a for a, _, _ in terms))
    start = max(a * j0 + h for a, h, j0 in terms)
    hits = set()
    for a, h, _ in terms:
        hits.update(range(h, L, a))
    d = Fraction(len(hits), L)

    def rule(n):
        if n >= start:
            return n % L in hits
        return any(n >= a * j0 + h and n % a == h for a, h, j0 in terms)
    return _Brute("ap-union", " | ".join(parts), rule, start + _AGREE_AP_SPAN, d, L, start)


def _round_half_up(x: Fraction) -> int:
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def _agree_blocks(rng, i):
    cycle = []
    for _ in range(1 + i % 4):
        e = rng.randint(0, 6)
        cycle.append(Fraction(rng.randint(0, 2 ** e), 2 ** e))
    if not any(cycle):
        cycle[0] = Fraction(1, 2)
    t = rng.randint(0, 3)
    text = "blocks f(n)=cycle{" + ",".join(frac(c) for c in cycle) + "}" + (f"@{t}" if t else "")

    def fill(n):
        return Fraction(0) if n < t else cycle[(n - t) % len(cycle)]

    def rule(n):
        if n < 1:
            return False
        blk = n.bit_length() - 1
        return n - (1 << blk) < _round_half_up(fill(blk) * (1 << blk))
    return _Brute("dyadic-block", text, rule, 4096, fill=fill)


class Agreement:
    """The cross-checking user. Each op parses one literal with
    natset.parse_set, computes its exact d-star, bd-star and buck values and
    checks them against brute counts read from the set: a member scan over a
    horizon, count_range and elements_in over the same range and at period
    or slice boundaries, and a sliding-window maximum. Reads dominate and
    almost nothing is built."""

    name = "agreement"
    HOTSPOT = ("natset.member", "natset.count_range", "natset.elements_in")
    STRATA = {"finite": (50, _agree_finite), "periodic": (60, _agree_periodic),
              "ap-union": (50, _agree_ap), "dyadic-block": (40, _agree_blocks)}
    ROUND_OPS = sum(n for n, _ in STRATA.values())
    # slice ends scanned for the block d-star limit; ratios there are within
    # a few units of 2^-(n - 8) of the phase limits
    BLOCK_TOP = 44
    # period-long count_range reads per eventually periodic set
    PERIOD_COUNTS = 32

    def __init__(self, dsx, seed: int, workdir: str):
        self.natset, self.density = dsx.natset, dsx.density
        self.seed = seed

    def setup(self):
        pass

    def round(self, r: int, seed: Optional[int] = None) -> list[Op]:
        rng = round_rng(self.name, self.seed if seed is None else seed, r)
        ops = []
        for kind, (count, make) in self.STRATA.items():
            ops.extend(self._op(make(rng, i)) for i in range(count))
        return shuffled(ops, rng)

    def _op(self, b: _Brute) -> Op:
        natset, density = self.natset, self.density
        top = self.BLOCK_TOP

        def run():
            a = natset.parse_set(b.text)
            values = tuple(fn(a).value for fn in (density.upper_asymptotic,
                                                  density.upper_banach, density.upper_buck))
            H = b.horizon
            bits = [1 if a.member(n) else 0 for n in range(H)]
            reads = {"count": a.count_range(0, H), "elements": a.elements_in(0, H)}
            if b.kind == "dyadic-block":
                ends = []
                for n in range(top - 8, top + 1):
                    ln = _round_half_up(b.fill(n) * (1 << n))
                    if ln:
                        end = (1 << n) + ln - 1
                        ends.append(Fraction(a.count_range(1, end + 1), end))
                reads["slice_ratios"] = ends
                # a full slice at least 2^20 long holds a window of that length
                n = next(n for n in range(20, top)
                         if _round_half_up(b.fill(n) * (1 << n)) >= 1 << 20)
                reads["long_window"] = a.count_range(1 << n, (1 << n) + (1 << 20))
                reads["long_window_elems"] = len(a.elements_in(1 << n, (1 << n) + (1 << 12)))
            else:
                step = b.window
                starts = range(b.window_from, H - step + 1, step)[:self.PERIOD_COUNTS]
                reads["period_counts"] = [a.count_range(k, k + step) for k in starts]
                reads["window"] = _window_max(bits, b.window, b.window_from)
            return a, values, bits, reads

        def check(res):
            a, values, bits, reads = res
            want_bits = [1 if b.rule(n) else 0 for n in range(b.horizon)]
            ok = (bits == want_bits and reads["count"] == sum(bits)
                  and reads["elements"] == [n for n, x in enumerate(bits) if x]
                  and all(v.status == "exact" for v in values))
            d, bd, buck = (v.value for v in values)
            if b.kind == "dyadic-block":
                tol = Fraction(1, 2 ** 24)
                ok = ok and abs(max(reads["slice_ratios"]) - d) <= tol
                ok = ok and reads["long_window"] == 1 << 20 and reads["long_window_elems"] == 1 << 12
                ok = ok and bd == buck == 1
            else:
                w = b.window
                per = reads["period_counts"]
                # a finite set leaves nothing past its last element; the
                # eventually periodic backends hold d*w members in every
                # period-long window past their irregular prefix
                ok = ok and d == bd == buck == b.value
                ok = ok and all(c == d * w for c in per) and len(per) >= 1
                ok = ok and reads["window"] == d * w
            rendered = (f"{b.kind}|{b.text}|{frac(d)}|{frac(bd)}|{frac(buck)}|"
                        f"{reads['count']}|{reads.get('window')}\n")
            return ok, rendered.encode()
        return Op(b.kind, run, check)


# ---------------------------------------------------------------------------


class Densitas:
    """The densitas modules a workload calls, looked up once after import."""

    def __init__(self):
        for mod in ("cli", "natset", "density", "metric", "samples"):
            setattr(self, mod, importlib.import_module(f"densitas.{mod}"))


def load(workload: str, seed: int, workdir: str):
    cls = {"queries": Queries, "axioms": Axioms, "agreement": Agreement}[workload]
    return cls(Densitas(), seed, workdir)
