"""Command-line frontend.

Verbs: eval, dist, norm, axioms, limit, witness, probe. Set arguments are
literals in the grammar of `natset.parse_set`, listed in the natset module
docstring (`fin{1,2,3}`, `per m=6 R={1,3} t=2 add={0}`,
`ap a=6! h=1 j0=1 | ap a=5040 h=3`, `blocks f(n)=cycle{1/2,1/4}@2`,
`horizon H=16 bits=ff00`). Reports embed the tool version and the resolved
config; under a fixed seed and config the json and csv outputs are
byte-identical across runs.

A report bound for stdout in text format (`--format text`, the default,
and no `--out`) is bare: eval, dist and norm print only the value, and
compute only the value. `main` makes that decision once and hands it to
`_dispatch`; json, csv and `--out` reports carry everything, a norm's
certified tail profile included.

Exit codes: 0 all checks passed, 1 a certificate or battery failed,
2 usage or parse error, 3 internal contract violation.

The argparse parser is built once per process, on the first `main` call,
and reused by every later call. A well-formed argv (a verb, its positionals,
exact option names each with a valid value) is read straight from the
parser's own actions into the Namespace argparse would return; argparse
itself answers every other argv, so abbreviations, `--opt=value`, `--`,
help, and every usage error keep argparse's Namespace, exit and messages.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

# exhaust, limits and witness are bound as modules, not names, so their
# bodies run on the first verb that calls into them (see densitas/__init__)
from . import __version__, exhaust, limits, witness
from .config import Config, DEFAULT_CONFIG, load_config
from .density import (
    FUNCTIONAL_NAMES,
    LSCSM_NAMES,
    check_submeasure_axioms,
    check_upper_density_axioms,
)
from .exceptions import DensitasError, OracleContractViolated, ParseError
from .metric import (
    SetSequence,
    cauchy_profile,
    check_pseudometric,
    dist,
    evaluate_measure,
    metric_equivalence_probe,
)
from .natset import FiniteSet, NatSet, PeriodicSet, format_set, parse_set
from .reports import AxiomReport, CheckRecord, _plan, _rows, _write, format_fraction
from .samples import chunked, pool_battery, thinning_blocks
from .values import ExtValue, _rational

__all__ = ["parse_set_literal", "format_set_literal", "emit_report", "main"]


# ---------------------------------------------------------------------------
# set literals


def parse_set_literal(text: str) -> NatSet:
    """Parse a set literal; the grammar is natset.parse_set's."""
    return parse_set(text)


def format_set_literal(a: NatSet) -> str:
    """Print a set literal; the grammar is natset.format_set's."""
    return format_set(a)


# ---------------------------------------------------------------------------
# report emission


def _format_value(v: ExtValue) -> str:
    if v.status == "exact":
        return format_fraction(v.value)
    if v.status == "infinite":
        return "infinity"
    if v.status == "bracket":
        # an open side is unbounded, which still encloses the value
        lo = "-infinity" if v.lower is None else format_fraction(v.lower)
        hi = "infinity" if v.upper is None else format_fraction(v.upper)
        return f"[{lo}, {hi}]"
    return f"~{format_fraction(v.value)} (observational)"


def _csv_rows(report) -> tuple[list[str], list]:
    if isinstance(report, AxiomReport):
        return (["name", "status", "detail"],
                [[r.name, r.status, r.detail] for r in report.records])
    return ["key", "value"], _rows(report)


def _text_lines(report) -> list[str]:
    if isinstance(report, AxiomReport):
        lines = [report.summary()]
        for r in report.records:
            if r.status != "pass":
                lines.append(f"  {r.status}: {r.name} ({r.detail})")
        return lines
    return [f"{k} = {v}" for k, v in _rows(report)]


def emit_report(report, fmt: str = "json",
                config: Config = DEFAULT_CONFIG) -> bytes:
    """Serialize any report dataclass deterministically."""
    if fmt == "json":
        # the envelope's keys in their sorted order, each value written by
        # the same walk as the report
        out = []
        for head, value in (('{\n  "config": ', config), (',\n  "report": ', report),
                            (',\n  "version": ', __version__)):
            out.append(head)
            _write(value, out, "\n  ")
        out.append("\n}\n")
        return "".join(out).encode()
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(f"# version={__version__}\n")
        # sorted, as the json envelope reads the config
        names, get = _plan(type(config))[1]
        buf.write("# config=" + ",".join(
            f"{name}:{value}" for name, value in zip(names, get(config))) + "\n")
        header, body = _csv_rows(report)
        buf.write(",".join(header) + "\n")
        for row in body:
            buf.write(",".join(cell.replace(",", ";") for cell in row) + "\n")
        return buf.getvalue().encode()
    if fmt == "text":
        lines = [f"densitas {__version__}"] + _text_lines(report)
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# batteries over seeded samples


def _merged_battery(check, functional: str, sets, config: Config, **kw) -> AxiomReport:
    """Run a pairwise battery on disjoint groups of three sets and merge the
    records under group-qualified names. Grouping keeps the quadratic part
    linear in the sample count."""
    reports = [check(functional, chunk, config, **kw) for chunk in chunked(sets, 3)]
    # with no samples there is no group; the subject still names the battery
    subject = (reports[0] if reports else check(functional, (), config, **kw)).subject
    return AxiomReport(subject, tuple(
        CheckRecord(f"g{gi}.{r.name}", r.status, r.detail, r.witness)
        for gi, rep in enumerate(reports) for r in rep.records))


def _axioms_report(battery: str, functional: str, samples: int, seed: int,
                   config: Config) -> AxiomReport:
    if samples < 0:
        raise ValueError(f"--samples must be >= 0, got {samples}")
    sets = pool_battery(samples, seed)
    if battery == "pseudometric":
        triples = [c for c in chunked(sets, 3) if len(c) == 3]
        return check_pseudometric(functional, triples, config)
    if battery == "upper-density":
        return _merged_battery(check_upper_density_axioms, functional, sets,
                               config, shifts=(1, 7, 100), dilations=(2, 3, 5))
    if battery == "submeasure":
        return _merged_battery(check_submeasure_axioms, functional, sets,
                               config)
    if battery == "lscsm":
        return exhaust.check_lscsm_axioms(functional, sets[:min(samples, 40)], config)
    raise ValueError(f"unknown battery {battery!r}; have pseudometric, "
                     "upper-density, submeasure, lscsm")


# ---------------------------------------------------------------------------
# named sequence families for the limit verb


# family -> (rule, tail bound, declared limit, default measure)
_FAMILIES = {
    "powers": (lambda n: FiniteSet(tuple(2 ** j for j in range(n))),
               lambda i: Fraction(2, 2 ** i), FiniteSet(()), "norm:phi-prefix"),
    "multiples": (lambda n: FiniteSet(tuple(3 * k for k in range(n + 1))),
                  lambda i: Fraction(4, 7 * 8 ** (i + 1)), PeriodicSet(3, (0,)),
                  "geometric"),
    "evens": (lambda n: FiniteSet(tuple(2 * k for k in range(n + 1))),
              lambda i: Fraction(2, 3 * 4 ** (i + 1)), PeriodicSet(2, (0,)), "geometric"),
}


def _limit_report(method: str, family: str, measure: Optional[str],
                  depth: int, config: Config):
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; have "
                         + ", ".join(sorted(_FAMILIES)))
    rule, tail_bound, limit, default_measure = _FAMILIES[family]
    seq = SetSequence(prefix=tuple(rule(n) for n in range(depth)), rule=rule,
                      monotone=True, tail_bound=tail_bound, limit=limit, label=family)
    nu = measure or default_measure
    if method == "sigma":
        return limits.sigma_limit(nu, seq, config=config)
    if method == "tail-cut":
        if not nu.startswith("norm:"):
            raise ValueError("tail-cut works on submeasure norms; pass "
                             "--measure norm:<lscsm>")
        return limits.lscsm_limit(nu.partition(":")[2], seq, config=config)
    if method == "cauchy":
        oracle = limits.sigma_union_oracle(nu, config)
        return limits.cauchy_to_limit(nu, seq, oracle, config=config)
    raise ValueError(f"unknown method {method!r}; have sigma, tail-cut, cauchy")


# ---------------------------------------------------------------------------
# witness pipeline


def _witness_levels(w) -> dict:
    """The levels and increments of a witness family as a report stores
    them: `witness build` writes them and `witness verify` compares them."""
    return {
        "levels": [{"index": lev.index, "entry": lev.entry,
                    "residues": list(lev.residues), "span": lev.span}
                   for lev in w.levels],
        "increments": [format_fraction(lev.increment_density) for lev in w.levels],
    }


def _witness_build_payload(kappa: Fraction, depth: int, demo: bool) -> dict:
    p = witness.derive_params(kappa, levels=max(6, depth + 2))
    w = witness.build_witness(p, depth, demo=demo)
    return {"params": p, "depth": depth, "demo": demo, **_witness_levels(w)}


def _check_stored_levels(w, doc: dict) -> None:
    """OracleContractViolated, naming the level and field, unless the stored
    levels and increments are exactly the ones the construction gives."""
    want = _witness_levels(w)
    for key in ("levels", "increments"):
        if not isinstance(doc[key], list):
            raise OracleContractViolated(f"stored {key} is not a list")
        if len(doc[key]) != len(want[key]):
            raise OracleContractViolated(
                f"len({key}) is {len(doc[key])} in the report, "
                f"{len(want[key])} in the deterministic construction")
    for i, (lev, stored) in enumerate(zip(want["levels"], doc["levels"])):
        for field in lev:
            if not isinstance(stored, dict) or stored.get(field) != lev[field]:
                raise OracleContractViolated(
                    f"level {i}: stored field {field!r} does not match the "
                    "deterministic construction")
        if doc["increments"][i] != want["increments"][i]:
            raise OracleContractViolated(
                f"level {i}: stored increment does not match the "
                "deterministic construction")


def _witness_verify(doc: dict, horizon: int, config: Config):
    params = witness.WitnessParams(
        kappa=_rational(doc["params"]["kappa"]),
        scale=int(doc["params"]["scale"]),
        cover=int(doc["params"]["cover"]),
        schedule=tuple(int(x) for x in doc["params"]["schedule"]))
    depth = int(doc["depth"])
    demo = bool(doc.get("demo", False))
    w = witness.build_witness(params, depth, demo=demo)
    _check_stored_levels(w, doc)
    inv = witness.check_witness_invariants(w, horizon=horizon)
    payload: dict = {"invariants": inv, "invariants_passed": inv.passed}
    ok = inv.passed
    if ok:
        div = witness.divergence_certificate(w, horizon=horizon)
        payload["divergence"] = div
        if params.kappa == Fraction(1, 2) and depth >= 1:
            gap = witness.banach_gap_certificate(w, horizon=horizon)
            payload["gap"] = gap
        prof = cauchy_profile("bd-star", witness.witness_sequence(w),
                              depth=depth + 1, config=config, full_table=False)
        payload["cauchy_certified"] = prof.certified
        ok = prof.certified
    return payload, ok


# ---------------------------------------------------------------------------
# argument plumbing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of the process, built once, on the first `main` call.
    `parse_args` keeps no state between calls, and argparse reads the help
    width only when it prints help. `_read` reads the kinds of argument
    declared here: options that store one value, with no string default
    for a `type` to convert, or are `store_true` flags, none required;
    positionals that take one word, or a subparser after them."""
    ap = argparse.ArgumentParser(
        prog="densitas",
        description="Exact densities, submeasure norms, and their "
                    "completeness certificates on subsets of the naturals.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="text")
        p.add_argument("--config", default=None, metavar="PATH",
                       help="config file (flat key = value); default "
                            "$DENSITAS_CONFIG")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the report here instead of stdout")

    p = sub.add_parser("eval", help="evaluate a functional on a set")
    p.add_argument("functional", help="one of %s or norm:<lscsm>"
                   % (FUNCTIONAL_NAMES,))
    p.add_argument("set", help="set literal")
    common(p)

    p = sub.add_parser("dist", help="pseudometric distance between two sets")
    p.add_argument("functional")
    p.add_argument("set_a", help="set literal")
    p.add_argument("set_b", help="set literal")
    common(p)

    p = sub.add_parser("norm", help="exhaustive norm of a set under an lscsm")
    p.add_argument("lscsm", help="one of %s" % (LSCSM_NAMES,))
    p.add_argument("set")
    common(p)

    p = sub.add_parser("axioms", help="seeded axiom batteries")
    p.add_argument("battery",
                   choices=("pseudometric", "upper-density", "submeasure",
                            "lscsm"))
    p.add_argument("functional")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("limit", help="limit pipelines on named families")
    p.add_argument("method", choices=("sigma", "tail-cut", "cauchy"))
    p.add_argument("family", help="one of %s" % ", ".join(sorted(_FAMILIES)))
    p.add_argument("--measure", default=None)
    p.add_argument("--depth", type=int, default=12)
    common(p)

    p = sub.add_parser("witness", help="build or verify the witness family")
    wsub = p.add_subparsers(dest="wverb", required=True)
    pb = wsub.add_parser("build")
    pb.add_argument("--kappa", default="1/2")
    pb.add_argument("--depth", type=int, default=4)
    pb.add_argument("--demo", action="store_true",
                    help="skip parameter validation (certificates carry "
                         "the demo flag)")
    common(pb)
    pv = wsub.add_parser("verify")
    pv.add_argument("file", help="JSON emitted by `witness build`")
    pv.add_argument("--horizon", type=int, default=10 ** 6)
    common(pv)

    p = sub.add_parser("probe", help="metric-equivalence probe of two "
                                     "measures over a named family")
    p.add_argument("measure_1")
    p.add_argument("measure_2")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--targets", default=None,
                   help="comma-separated ratios the probe must exceed")
    p.add_argument("--bounds", default=None,
                   help="lo,hi claimed two-sided bounds to confirm")
    common(p)
    return ap


def _dispatch(args, config: Config, bare: bool) -> tuple[object, bool]:
    """Returns (report, ok). `bare` is `main`'s one decision that the report
    goes to stdout as text: then eval, dist and norm return only their
    value's text, which `main` prints as it is, and compute nothing that
    text does not show. A bare norm asks for no profile cuts; its value is
    the one the full estimate carries."""
    if args.verb == "eval":
        v = evaluate_measure(args.functional, parse_set_literal(args.set),
                             config)
        return (_format_value(v) if bare else v), True
    if args.verb == "dist":
        v = dist(args.functional, parse_set_literal(args.set_a),
                 parse_set_literal(args.set_b), config)
        return (_format_value(v) if bare else v), True
    if args.verb == "norm":
        est = exhaust.exhaustive_norm(args.lscsm, parse_set_literal(args.set), config,
                                      profile_cuts=() if bare else None)
        return (_format_value(est.value) if bare else est), True
    if args.verb == "axioms":
        rep = _axioms_report(args.battery, args.functional, args.samples,
                             args.seed, config)
        return rep, rep.passed
    if args.verb == "limit":
        cert = _limit_report(args.method, args.family, args.measure,
                             args.depth, config)
        return cert, cert.verdict == "certified"
    if args.verb == "witness":
        if args.wverb == "build":
            payload = _witness_build_payload(_rational(args.kappa),
                                             args.depth, args.demo)
            return payload, True
        with open(args.file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if "report" in doc:
            doc = doc["report"]
        payload, ok = _witness_verify(doc, args.horizon, config)
        return payload, ok
    if args.verb == "probe":
        family = SetSequence(prefix=thinning_blocks(args.depth),
                             label="thinning")
        targets = tuple(_rational(t)
                        for t in (args.targets or "").split(",") if t)
        bounds = None
        if args.bounds:
            parts = args.bounds.split(",")
            if len(parts) != 2:
                raise ValueError("--bounds wants `lo,hi`")
            bounds = (_rational(parts[0]), _rational(parts[1]))
        rep = metric_equivalence_probe(args.measure_1, args.measure_2,
                                       family, claimed_bounds=bounds,
                                       targets=targets, config=config)
        if targets:
            ok = rep.verdict == "ratio-diverges"
        elif bounds:
            ok = rep.verdict == "two-sided-bounded"
        else:
            ok = True
        return rep, ok
    raise ValueError(f"unknown verb {args.verb!r}")


@functools.cache
def _grammar(parser: argparse.ArgumentParser):
    """(positionals, readable options by exact option string, defaults) of
    one parser, from its own actions. Options that are neither one-value
    stores nor `store_true` flags, such as `-h` and `--version`, are left
    out, so `_read` declines them."""
    acts = parser._actions
    options = {s: a for a in acts if a.nargs is None or (
        a.nargs == 0 and a.const is True and a.default is False) for s in a.option_strings}
    defaults = {a.dest: a.default for a in acts
                if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS}
    return tuple(a for a in acts if not a.option_strings), options, defaults


def _read(parser: argparse.ArgumentParser,
          words: list[str]) -> Optional[argparse.Namespace]:
    """The Namespace `parser.parse_args(words)` returns, read straight from
    the parser's actions; None where this reading cannot show it the same:
    a word starting with `-` that is no readable option (an abbreviation,
    `--opt=value`, `-h`, `--`, a negative number), a missing or extra
    positional, an option value starting with `-`, or a value its `type` or
    `choices` refuses. A subparser, the last positional, reads the words
    after its name."""
    positionals, options, defaults = _grammar(parser)
    args = argparse.Namespace(**defaults)
    todo = iter(positionals)
    i = 0
    while i < len(words):
        word = words[i]
        if word.startswith("-"):
            action = options.get(word)
            if action is None:
                return None
            i += 1
            if action.nargs == 0:
                setattr(args, action.dest, action.const)
                continue
            if i == len(words) or words[i].startswith("-"):
                return None
            word = words[i]
        else:
            action = next(todo, None)
            if action is None:
                return None
            if action.nargs == argparse.PARSER:
                sub = action.choices.get(word)
                rest = None if sub is None else _read(sub, words[i + 1:])
                if rest is None:
                    return None
                setattr(args, action.dest, word)
                vars(args).update(vars(rest))
                return args
        try:
            value = word if action.type is None else action.type(word)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        setattr(args, action.dest, value)
        i += 1
    return None if next(todo, None) is not None else args


def _parse_argv(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """The Namespace `_build_parser().parse_args(argv)` returns, and the same
    exit and messages on a usage error: `_read` reads a well-formed argv,
    argparse answers every other one."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = _read(parser, argv)
    return parser.parse_args(argv) if args is None else args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_argv(argv)
    try:
        config = load_config(args.config)
    except (OSError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        report, ok = _dispatch(args, config,
                               bare=args.format == "text" and args.out is None)
        if isinstance(report, str):
            print(report)
            return 0
        data = emit_report(report, args.format, config)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except OracleContractViolated as e:
        print(f"contract violation: {e}", file=sys.stderr)
        return 3
    except DensitasError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
