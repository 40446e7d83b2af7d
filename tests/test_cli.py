"""Frontend behaviour: the set-literal DSL, report emission, verbs, and
exit codes."""

import argparse
import collections
import dataclasses
import enum
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import densitas
from densitas import cli, exhaust, limits, metric, natset, witness
from densitas.cli import (
    _axioms_report,
    _build_parser,
    _format_value,
    _limit_report,
    _parse_argv,
    _witness_build_payload,
    _witness_verify,
    emit_report,
    format_set_literal,
    main,
    parse_set_literal,
)
from densitas.config import DEFAULT_CONFIG, load_config
from densitas.exceptions import (
    DensitasError,
    NotCauchy,
    ParseError,
    UnprintableValue,
    UnsupportedBackend,
)
from densitas.exhaust import exhaustive_norm
from densitas.metric import SetSequence, cauchy_profile, metric_equivalence_probe
from densitas.natset import (
    APTerm,
    APUnionSet,
    DyadicBlockSet,
    FiniteSet,
    HorizonSet,
    PeriodicSet,
    complement,
    finite_part,
    parse_set,
)
from densitas.reports import AxiomReport, CheckRecord, _rows, to_json, to_payload
from densitas.samples import thinning_blocks
from densitas.values import bracket, exact, infinite, observational
from densitas.witness import build_witness, derive_params, witness_sequence


# ---------------------------------------------------------------------------
# the DSL


def test_parse_finite():
    a = parse_set_literal("fin{1,2,3}")
    assert isinstance(a, FiniteSet) and a.elements == (1, 2, 3)
    assert parse_set_literal("fin{}").is_empty_surely()


def test_parse_periodic_with_threshold():
    a = parse_set_literal("per m=6 R={1,3} t=2")
    assert isinstance(a, PeriodicSet)
    assert (a.modulus, a.residues, a.threshold) == (6, (1, 3), 2)


def test_parse_ap_terms_with_factorial_modulus():
    a = parse_set_literal("ap a=6! h=1 j0=1")
    assert isinstance(a, APUnionSet) and len(a.terms) == 1
    assert a.terms[0].modulus == 720
    assert a.terms[0].label == "6!"
    b = parse_set_literal("ap a=720 h=1 j0=1 | ap a=5040 h=3 j0=1")
    assert [t.modulus for t in b.terms] == [720, 5040]


def test_parse_blocks_and_horizon():
    a = parse_set_literal("blocks f(n)=2^-3")
    assert isinstance(a, DyadicBlockSet)
    assert a.fill.cycle == (Fraction(1, 8),)
    b = parse_set_literal("blocks f(n)=3/4")
    assert b.fill.cycle == (Fraction(3, 4),)
    h = parse_set_literal("horizon H=8 bits=a5")
    assert isinstance(h, HorizonSet)
    assert list(h.elements_in(0, 8)) == [0, 2, 5, 7]


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_set_literal("per m=6 R=oops")
    with pytest.raises(ParseError):
        parse_set_literal("fin{1,2")
    with pytest.raises(ParseError):
        parse_set_literal("gadget{3}")
    with pytest.raises(ParseError):
        parse_set_literal("blocks f(n)=5/4")
    with pytest.raises(ParseError):
        parse_set_literal("horizon H=4 bits=ff")
    err = ParseError("boom", "per x", 4)
    assert "^" in str(err)


@pytest.mark.parametrize("text", [
    "fin{1,2,3}",
    "fin{}",
    "per m=6 R={1,3}",
    "per m=6 R={1,3} t=2",
    "ap a=6! h=1 j0=1",
    "ap a=720 h=1 j0=1 | ap a=5040 h=3 j0=1",
    "blocks f(n)=2^-3",
    "blocks f(n)=3/4",
    "horizon H=8 bits=a5",
    "fin{0..9}",
    "per m=6 R={1} t=2 rm={1}",
    "ap a=6! h=1 | ap a=4 h=3 j0=2",
    "blocks f(n)=cycle{1/2,1/4}@2",
    "blocks f(n)=1/n",
    "blocks f(n)=2^-n",
    "horizon H=16 bits=ff00",
])
def test_literal_round_trip(text):
    a = parse_set_literal(text)
    assert parse_set_literal(format_set_literal(a)) == a


def test_format_refuses_exception_lists():
    # periodic exceptions have a literal form; ap extras/removals have none
    a = parse_set_literal("per m=2 R={0} t=4 add={1}")
    assert a == PeriodicSet(2, (0,), threshold=4, added=(1,))
    assert format_set_literal(a) == "per m=2 R={0} t=4 add={1}"
    assert parse_set_literal(format_set_literal(a)) == a
    with pytest.raises(UnsupportedBackend):
        format_set_literal(APUnionSet((APTerm(4, 1),), extras=(2,)))


@pytest.mark.parametrize("parse", [parse_set_literal, parse_set])
def test_horizon_bit_i_is_member_i(parse):
    # the CLI and the library read one grammar, so they agree on the bit order
    assert parse("horizon H=16 bits=ff00").elements_in(0, 16) == list(range(8, 16))
    assert parse("horizon H=8 bits=a").elements_in(0, 8) == [1, 3]
    with pytest.raises(ParseError):
        parse("horizon H=4 bits=ff")


# ---------------------------------------------------------------------------
# emission


def test_emit_json_embeds_version_and_config():
    rep = AxiomReport("demo", (CheckRecord("a", "pass", "fine"),))
    doc = json.loads(emit_report(rep, "json").decode())
    assert doc["version"]
    assert "modulus_budget" in doc["config"]
    assert doc["report"]["records"][0]["name"] == "a"


def test_emit_formats_are_deterministic():
    rep = AxiomReport("demo", (CheckRecord("a", "pass", "fine",
                                           witness=Fraction(1, 3)),))
    for fmt in ("json", "csv", "text"):
        assert emit_report(rep, fmt) == emit_report(rep, fmt)
    assert b"1/3" in emit_report(rep, "json")


def test_payload_refuses_floats():
    # payloads are exact by contract; a float reaching the encoder is a bug
    with pytest.raises(TypeError):
        to_payload(CheckRecord("a", "pass", "fine", witness=0.5))
    with pytest.raises(TypeError):
        emit_report(AxiomReport("demo", (CheckRecord("a", "pass", witness=[1.0]),)), "json")
    assert to_payload({"q": Fraction(2, 4), "n": 3}) == {"q": "1/2", "n": 3}
    for bad in (0.5, [1, 1.0], {"q": (Fraction(1), 2.5)}, CheckRecord("a", "pass", witness=0.5)):
        with pytest.raises(TypeError):
            to_payload(bad)
        with pytest.raises(TypeError):
            to_json(bad)


def _emitted_reports(tmp_path) -> list:
    """Every kind of report the CLI emits, every set backend, and the odd
    leaves: open bracket sides, non-ASCII notes, empty containers, sets,
    bytes and keys that are not strings."""
    table_kept = complement(parse_set("per m=4096 R={0..99}"))
    assert table_kept._table_cache is not None and "residues" not in vars(table_kept)
    sets = [parse_set(text) for text in (
        "fin{}", "fin{1,2,3}", "per m=6 R={1,3} t=2 add={0}",
        "ap a=6! h=1 j0=1 | ap a=5040 h=3", "blocks f(n)=cycle{1/2,1/4}@2",
        "horizon H=16 bits=ff00")] + [table_kept]
    path = tmp_path / "w.json"
    assert main(["witness", "build", "--kappa", "1/2", "--depth", "2", "--format", "json",
                 "--out", str(path)]) == 0
    verified, ok = _witness_verify(json.loads(path.read_text())["report"], 10 ** 4,
                                   DEFAULT_CONFIG)
    assert ok
    w = build_witness(derive_params(Fraction(1, 2), levels=6), 2)
    return sets + [
        exact(Fraction(1, 3)), exact(Fraction(2)), infinite("∞ by count"),
        bracket(None, Fraction(1, 2)), bracket(Fraction(1, 4), None, "naïve"),
        bracket(Fraction(1, 4), Fraction(1, 3)), observational(Fraction(2, 7), "cut at 10⁵"),
        exhaustive_norm("phi-alpha:a=2", parse_set("blocks f(n)=1/3")),
        exhaustive_norm("psi-dyadic", table_kept),
        _limit_report("sigma", "multiples", None, 6, DEFAULT_CONFIG),
        _limit_report("tail-cut", "powers", "norm:phi-prefix", 6, DEFAULT_CONFIG),
        _limit_report("cauchy", "evens", None, 6, DEFAULT_CONFIG),
        cauchy_profile("bd-star", witness_sequence(w), depth=3),
        metric_equivalence_probe("norm:phi-infty-trunc:a=4", "norm:psi-dyadic",
                                 SetSequence(prefix=thinning_blocks(3), label="thinning"),
                                 targets=(Fraction(1), Fraction(2))),
        _axioms_report("upper-density", "d-star", 6, 0, DEFAULT_CONFIG),
        _axioms_report("pseudometric", "bd-star", 6, 1, DEFAULT_CONFIG),
        _witness_build_payload(Fraction(1, 3), 3, False), verified,
        AxiomReport("empty"),
        CheckRecord("é", "fail", 'a "quoted" tab\tand ☃', witness={
            "bytes": b"\x00\xff", "set": {3, 1, 2}, "fractions": frozenset({Fraction(1, 2), Fraction(1, 3)}),
            "empty": [{}, [], (), set(), frozenset(), b""], 7: None, Fraction(1, 2): (True, False)}),
        # leaves whose type is a subclass of one the writers inline, and a
        # dataclass with no public field
        CheckRecord("subclasses", "pass", _Label("sub ☃"), witness={
            "flag": True, "level": _Level.HIGH, "label": _Label('a "str" subclass'),
            "levels": [_Level.LOW, False, _Label("")], "private": _Private()}),
        _Private(),
        # five levels of nesting: record, mapping, list, tuple, record
        CheckRecord("deep", "pass", witness={"a": [(CheckRecord(
            "inner", "skip", witness={"b": [(Fraction(-7, 3), None, _Level.LOW)]}), 2)]}),
    ]


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 12


class _Label(str):
    pass


@dataclasses.dataclass(frozen=True)
class _Private:
    _a: int = 1
    _b: str = "hidden"


def test_json_writer_matches_the_payload_encoding(tmp_path):
    path = tmp_path / "densitas.conf"
    path.write_text("window_max = 64\nmodulus_budget = 7\nie_subset_budget = 0\n")
    loaded = load_config(str(path))
    assert loaded != DEFAULT_CONFIG and loaded.window_max == 64
    for report in _emitted_reports(tmp_path):
        want = json.dumps(to_payload(report), sort_keys=True, indent=2)
        assert to_json(report) == want
        for config in (DEFAULT_CONFIG, loaded):
            doc = {"version": densitas.__version__,
                   "config": dataclasses.asdict(config),
                   "report": to_payload(report)}
            assert emit_report(report, "json", config) == (
                json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def test_an_unprintable_integer_deep_in_a_report_raises_on_every_walk():
    # past the int-to-str digit limit, inside a dataclass inside a mapping
    report = {"outer": CheckRecord("big", "pass", witness=10 ** 4400)}
    for walk in (to_json, _rows, to_payload):
        with pytest.raises(UnprintableValue, match="past the int-to-str digit limit"):
            walk(report)


def _payload_rows(report) -> list[tuple[str, str]]:
    """The csv and text rows as the payload tree gives them: to_payload's
    dicts and lists flattened, keys joined by dots and indices in brackets."""
    rows = []

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in obj:
                walk(f"{prefix}.{k}" if prefix else str(k), obj[k])
        elif isinstance(obj, list):
            for i, x in enumerate(obj):
                walk(f"{prefix}[{i}]", x)
        else:
            rows.append((prefix, "" if obj is None else str(obj)))

    walk("", to_payload(report))
    return rows


def test_csv_and_text_rows_are_the_flattened_payload(tmp_path):
    for report in _emitted_reports(tmp_path):
        rows = _payload_rows(report)
        assert _rows(report) == rows
        if isinstance(report, AxiomReport):
            continue  # csv and text print its records instead
        body = "".join(",".join(cell.replace(",", ";") for cell in row) + "\n" for row in rows)
        assert emit_report(report, "csv").decode().endswith("\nkey,value\n" + body)
        assert emit_report(report, "text").decode() == (
            f"densitas {densitas.__version__}\n" + "".join(f"{k} = {v}\n" for k, v in rows))


# ---------------------------------------------------------------------------
# verbs and exit codes


def test_eval_prints_exact_fraction(capsys):
    assert main(["eval", "d-star", "per m=6 R={1,3}"]) == 0
    assert capsys.readouterr().out.strip() == "1/3"


def test_geometric_of_a_far_finite_member_is_a_bracket(capsys):
    # 2^-20001 has more digits than Python prints; past the grammar's 2^-k
    # bound the sum below it and the residual mass bracket the value
    assert main(["eval", "geometric", "fin{3,13999}"]) == 0
    assert capsys.readouterr().out.strip() == str(Fraction(1, 16) + Fraction(1, 2 ** 14000))
    assert main(["eval", "geometric", "fin{3,20000}"]) == 0
    lo, hi = capsys.readouterr().out.strip().strip("[]").split(", ")
    assert Fraction(lo) == Fraction(1, 16)
    assert Fraction(hi) == Fraction(1, 16) + Fraction(1, 2 ** 14000)


def test_a_geometric_bracket_names_what_passed_the_exponent_budget(capsys):
    # the modulus is 3; the threshold 5000 is what the exact series refuses
    assert main(["eval", "geometric", "per m=3 R={0} t=5000", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["note"] \
        == "threshold beyond the exponent budget; tail bounded by residual mass"
    for literal, what in (("per m=5000 R={0}", "moduli"),
                          ("per m=5000 R={0} t=4097", "moduli and threshold"),
                          ("ap a=3 h=5000", "term starts"),
                          ("ap a=6000 h=5000", "moduli and term starts")):
        assert main(["eval", "geometric", literal, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["note"] \
            == what + " beyond the exponent budget; tail bounded by residual mass"


def test_dist_example(capsys):
    assert main(["dist", "d-star", "per m=1 R={0}", "per m=2 R={0}"]) == 0
    assert capsys.readouterr().out.strip() == "1/2"


_DISGUISED_FINITE = ("per m=5 R={} t=9 add={1,7}", "per m=2 R={}", "blocks f(n)=0",
                     "blocks f(n)=cycle{0}@3", "blocks f(n)=cycle{0,0}")
_PARTNERS = ("blocks f(n)=1/4", "blocks f(n)=1/n", "per m=3 R={0}",
             "ap a=4 h=1 | ap a=6 h=3", "horizon H=16 bits=ff00", "per m=2 R={}")


@pytest.mark.parametrize("lit", _DISGUISED_FINITE)
def test_a_disguised_finite_operand_combines_as_its_fin_twin(lit, capsys):
    # an empty rule part leaves a finite set, which combines with every
    # backend, whatever the literal's own backend
    twin = "fin{" + ",".join(map(str, finite_part(parse_set(lit)).elements)) + "}"
    for partner in _PARTNERS:
        for pair in ((lit, partner), (partner, lit)):
            for name in ("d-star", "bd-star"):
                for fmt in ("text", "json"):
                    argv = ["dist", name, *pair, "--format", fmt]
                    got = _run(argv, capsys)
                    assert got[0] == 0, (argv, got)
                    assert got == _run([twin if x == lit else x for x in argv], capsys), argv
    assert _run(["dist", "d-star", "per m=5 R={} t=9 add={1,7}", "blocks f(n)=1/4"],
                capsys) == (0, "2/5\n", "")
    assert _run(["dist", "d-star", "blocks f(n)=0", "per m=3 R={0}"], capsys) == (0, "1/3\n", "")


def test_budget_error_on_a_long_lcm_exits_3(capsys):
    # the lcm of two 3,000-digit moduli has more digits than Python prints;
    # the budget error must not trip over its own message
    sevens, threes = "7" * 3000, "3" * 3000 + "1"
    assert main(["dist", "d-star", f"per m={sevens} R={{0}}", f"per m={threes} R={{0}}"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ModulusBudgetExceeded: lcm [") and "bits] exceeds" in err
    assert "Exceeds the limit" not in err


def test_long_literal_natural_is_a_typed_parse_error(capsys):
    # past Python's 4,300-digit int-from-str limit the grammar names the
    # digit count itself instead of passing on int()'s own message
    sevens = "7" * 5000
    assert main(["eval", "d-star", f"per m={sevens} R={{0}}"]) == 2
    err = capsys.readouterr().err
    assert "a natural of 5000 digits exceeds the literal limit of 4300 digits" in err
    assert "Exceeds the limit" not in err
    assert main(["eval", "d-star", f"per m={'7' * 4300} R={{0}}"]) == 0


def test_unprintable_value_exits_3_in_every_format(monkeypatch, capsys):
    # a rational past Python's 4,300-digit int-to-str limit is a typed error
    # under the exit-code contract, whichever writer meets it first
    huge = exact(Fraction(1, 10 ** 4400))
    monkeypatch.setattr(cli, "_dispatch", lambda args, config, bare: (huge, True))
    for fmt in ("json", "csv", "text"):
        assert main(["eval", "d-star", "fin{1}", "--format", fmt]) == 3
        err = capsys.readouterr().err
        assert err.startswith("UnprintableValue: ") and "Traceback" not in err
    monkeypatch.undo()
    # the plain text of a norm whose bracket has a 24,641-bit denominator
    assert main(["norm", "phi-infty", "blocks f(n)=1/3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("UnprintableValue: ") and "Exceeds the limit" not in err


def test_unprintable_integer_leaf_exits_3_in_every_format(monkeypatch, capsys):
    # an integer leaf past the int-to-str limit meets the json writer or the
    # csv/text row walk; each reports it as a typed error, not a usage error
    monkeypatch.setattr(cli, "_dispatch", lambda args, config, bare: ({"n": 10 ** 4400}, True))
    for fmt in ("json", "csv", "text"):
        assert main(["eval", "d-star", "fin{1}", "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("UnprintableValue: ")
        assert "Exceeds the limit" not in captured.err and "Traceback" not in captured.err


def test_norm_verb(capsys):
    assert main(["norm", "psi-dyadic", "blocks f(n)=2^-3"]) == 0
    assert capsys.readouterr().out.strip() == "1/8"


# one concrete parameter per LSCSM_NAMES entry, and literals on all five
# backends: finite, periodic with threshold and exceptions, factorial AP
# union, constant/cyclic/`1/n`/dyadic blocks, horizon
_NORM_NAMES = ("phi-prefix", "psi-dyadic", "phi-alpha:a=2", "phi-infty:eps=1/2",
               "phi-infty-trunc:a=2", "counting", "harmonic", "geometric",
               "weighted:f=harmonic")
_NORM_LITERALS = ("fin{0,3,7,100}", "per m=6 R={1,3} t=8 add={0,2} rm={7}",
                  "ap a=4! h=1 | ap a=5! h=3", "blocks f(n)=1/3",
                  "blocks f(n)=cycle{1/2,1/4}", "blocks f(n)=1/n", "blocks f(n)=2^-3",
                  "horizon H=16 bits=ff00")


def _run(argv, capsys) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name, literals", [
    *(pytest.param(name, _NORM_LITERALS, id=name) for name in _NORM_NAMES),
    # under the default eps these brackets are past the int-to-str limit
    pytest.param("phi-infty", ("blocks f(n)=1/3", "blocks f(n)=cycle{1/2,1/4}",
                               "blocks f(n)=2^-3"), id="phi-infty")])
def test_bare_norm_prints_the_full_estimates_value(name, literals, capsys):
    # bare text computes no profile; what it prints, or the typed error it
    # exits with, is the full estimate's
    for lit in literals:
        try:
            want = 0, _format_value(exhaustive_norm(name, parse_set(lit)).value) + "\n", ""
        except DensitasError as e:
            want = 3, "", f"{type(e).__name__}: {e}\n"
        assert _run(["norm", name, lit], capsys) == want, (name, lit)


@pytest.mark.parametrize("lscsm, lit", [("phi-alpha:a=2", "per m=6 R={1,3} t=8 add={0,2} rm={7}"),
                                        ("phi-alpha:a=2", "blocks f(n)=cycle{1/2,1/4}")])
def test_only_reports_that_print_the_profile_compute_it(lscsm, lit, monkeypatch, tmp_path,
                                                        capsys):
    calls = []
    real = exhaust._tail

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(exhaust, "_tail", counted)
    assert _run(["norm", lscsm, lit], capsys)[0] == 0
    assert calls == []
    cuts = [1 << k for k in range(0, 13, 2)]
    assert _run(["norm", lscsm, lit, "--format", "json"], capsys)[0] == 0
    assert calls == cuts
    calls.clear()
    assert _run(["norm", lscsm, lit, "--out", str(tmp_path / "norm.txt")], capsys)[0] == 0
    assert calls == cuts


# sha256 of the norm reports recorded before bare text stopped computing the
# profile: json on stdout, and text and csv through --out
_NORM_REPORTS = {
    ("phi-alpha:a=2", "blocks f(n)=1/3", "json"):
        "760718669d7eb4fa28bf60bdc6d910808e58c8cb52e648bbffde57ac8f5a8985",
    ("phi-alpha:a=2", "blocks f(n)=1/3", "text"):
        "0d6a2d23ba1f739a8a3ad70ff146971a2a5727dc7c952d34dbf58e431a014c30",
    ("phi-alpha:a=2", "blocks f(n)=1/3", "csv"):
        "d795432c0e89a3110a60ff9b2033854126ce7f2148adb01eeded445d032fb885",
    ("psi-dyadic", "per m=12 R={1,5,7}", "json"):
        "cb122cec12cc3ccfeb877398bce2ca746ca838719ee3d014ba753b028c1ddb48",
    ("psi-dyadic", "per m=12 R={1,5,7}", "text"):
        "08f1d1d9641917919bc599ab13459e234ca46f70bd17d4ed00baf972eacf035d",
    ("psi-dyadic", "per m=12 R={1,5,7}", "csv"):
        "139ba079fb2be0988eb7c750ea241670e9e954a7cc3e52a9a7e84db8e415c9ca",
}


@pytest.mark.parametrize("lscsm, lit, fmt", sorted(_NORM_REPORTS))
def test_norm_reports_are_pinned(lscsm, lit, fmt, tmp_path, capsys):
    argv = ["norm", lscsm, lit, "--format", fmt]
    if fmt == "json":
        assert main(argv) == 0
        data = capsys.readouterr().out.encode()
    else:
        out = tmp_path / "norm.out"
        assert main(argv + ["--out", str(out)]) == 0
        data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == _NORM_REPORTS[lscsm, lit, fmt]


def test_eval_infinite_counting(capsys):
    assert main(["eval", "counting", "per m=2 R={0}"]) == 0
    assert capsys.readouterr().out.strip() == "infinity"


def test_open_bracket_sides(capsys):
    # text prints `[8, infinity]` (a README example); json keeps the null
    assert main(["eval", "counting", "horizon H=8 bits=ff", "--format", "json"]) == 0
    value = json.loads(capsys.readouterr().out)["report"]
    assert (value["lower"], value["upper"]) == ("8", None)
    assert _format_value(bracket(None, Fraction(1, 2))) == "[-infinity, 1/2]"


@pytest.mark.parametrize("literal", ["horizon H=0 bits=0", "horizon H=1 bits=1"])
def test_weighted_density_of_a_horizon_without_lengths_is_observational_zero(literal, capsys):
    # no prefix length fits below H - 1, so the weighted profile is empty
    # and its estimate is 0, as under d-star and bd-star
    for name in ("weighted:f=harmonic", "d-star", "bd-star"):
        assert main(["eval", name, literal]) == 0
        assert capsys.readouterr().out == "~0 (observational)\n"
    assert main(["eval", "weighted:f=harmonic", literal, "--format", "json"]) == 0
    value = json.loads(capsys.readouterr().out)["report"]
    assert (value["status"], value["value"]) == ("observational", "0")


@pytest.mark.parametrize("argv, code", [
    (["axioms", "upper-density", "d-star", "--samples", "0"], 0),
    (["axioms", "submeasure", "bd-star", "--samples", "0"], 0),
    (["axioms", "upper-density", "d-star", "--samples", "-1"], 2),
    (["axioms", "lscsm", "counting", "--samples", "-4"], 2),
    (["eval", "counting", "horizon H=8 bits=ff"], 0),
    (["norm", "counting", "blocks f(n)=2^-n"], 0),
    (["eval", "harmonic", "horizon H=8 bits=ff"], 0),
    (["norm", "harmonic", "blocks f(n)=1/n"], 0),
    (["witness", "verify", "{family}"], 0),
    (["probe", "d-star", "bd-star", "--family", "thinning"], 2),
    (["dist", "d-star", "ap a=2 h=100000000000000000000", "ap a=3 h=0"], 3),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_exit_code_contract(argv, code, tmp_path, capsys):
    family = tmp_path / "family.json"
    if "{family}" in argv:
        assert main(["witness", "build", "--kappa", "1/2", "--depth", "0",
                     "--format", "json", "--out", str(family)]) == 0
    t = time.perf_counter()
    try:
        got = main([a.replace("{family}", str(family)) for a in argv])
    except SystemExit as e:  # argparse usage errors
        got = e.code
    err = capsys.readouterr().err
    assert got in (0, 1, 2, 3) and "Traceback" not in err
    assert got == code, err
    assert time.perf_counter() - t < 5.0


def test_axioms_without_samples_name_the_battery(capsys):
    assert main(["axioms", "upper-density", "d-star", "--samples", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "upper density d-star: 0 passed, 0 failed, 0 skipped"


def test_parse_failure_exits_2(capsys):
    assert main(["eval", "d-star", "per m=6 R={9}"]) == 2
    assert main(["eval", "no-such-functional", "fin{1}"]) == 2
    capsys.readouterr()


# a name is its family alone or the family, `:` and its one key=value; a
# name that only starts like a family, or gives a wrong or empty argument,
# is refused
_MALFORMED_NAMES = ("phi-alphabeta=3", "phi-infty-truncated", "phi-inftyXeps=1/4", "weightedfoo",
                    "weighted", "weighted:f=", "weighted:f=harmonic:a=1", "phi-alpha",
                    "phi-alpha:a=", "phi-alpha:b=3", "phi-infty:eps=", "phi-infty:eps=1 / 4",
                    "phi-infty-trunc:a=x", "phi-prefix:", "counting:a=1", "geometric:")


@pytest.mark.parametrize("name", _MALFORMED_NAMES)
def test_malformed_measure_names_exit_2(name, capsys):
    for argv in (["eval", name, "fin{1}"], ["eval", f"norm:{name}", "fin{1}"],
                 ["norm", name, "per m=3 R={0}"], ["dist", name, "fin{1}", "fin{2}"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("usage error: "), argv


def test_one_rational_reader(capsys):
    # the lscsm argument and the witness option read a rational alike
    assert main(["witness", "build", "--kappa", "1 / 2", "--depth", "1"]) == 2
    assert main(["norm", "phi-infty:eps=1 / 4", "fin{1}"]) == 2
    assert capsys.readouterr().err.count("bad rational") == 2
    assert main(["norm", "phi-infty:eps=0.25", "fin{1}"]) == 0


def test_zero_denominator_exits_2(capsys):
    for text in ("blocks f(n)=1/0", "blocks f(n)=cycle{1/0}"):
        assert main(["eval", "d-star", text]) == 2
        assert capsys.readouterr().err.startswith("parse error")


def test_factorial_modulus_is_bounded(capsys):
    # N! is computed while parsing; a huge N used to spend seconds in
    # math.factorial before anything was checked
    t = time.perf_counter()
    assert main(["eval", "d-star", "ap a=1048576! h=0"]) == 2
    assert time.perf_counter() - t < 1.0
    err = capsys.readouterr().err
    assert err.startswith("parse error") and "^" in err
    assert main(["eval", "d-star", "ap a=7! h=1"]) == 0
    assert capsys.readouterr().out.strip() == "1/5040"


def test_dyadic_fill_exponent_is_bounded(capsys):
    # the fill is labelled by its value; 2^20000 has too many digits to print
    assert main(["eval", "d-star", "blocks f(n)=2^-14000"]) == 0
    capsys.readouterr()
    for literal in ("blocks f(n)=2^-14001", "blocks f(n)=cycle{2^-20000}"):
        assert main(["eval", "d-star", literal]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error") and "^" in err
        assert "exceeds the dyadic limit 2^-14000" in err


def test_equal_fills_under_two_spellings_are_one_set(capsys):
    assert main(["dist", "d-star", "blocks f(n)=1/2", "blocks f(n)=cycle{1/2}"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def _readme_examples():
    """(argv, stdout) of every `$ densitas ...` example in the README."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ densitas "):
            out = []
            for follow in lines[i + 1:]:
                if follow.startswith(("$ ", "```")):
                    break
                out.append(follow + "\n")
            examples.append((shlex.split(line)[2:], "".join(out)))
    return examples


def test_readme_examples_print_their_documented_output(capsys):
    examples = _readme_examples()
    assert len(examples) >= 6
    for argv, out in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == out, argv


def test_truncated_evidence_degrades_to_observational(capsys):
    # exhaustive norms on horizon sets degrade honestly instead of guessing
    assert main(["norm", "phi-prefix", "horizon H=8 bits=a5"]) == 0
    assert "observational" in capsys.readouterr().out


def test_schedule_shortfall_exits_3(tmp_path, capsys):
    out = tmp_path / "family.json"
    main(["witness", "build", "--depth", "2", "--format", "json",
          "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["report"]["depth"] = 7
    out.write_text(json.dumps(doc))
    assert main(["witness", "verify", str(out)]) == 3
    capsys.readouterr()


def _cut_levels(n):
    def edit(rep):
        rep["levels"] = rep["levels"][:n]
    return edit


def _extra_level(rep):
    rep["levels"].append(dict(rep["levels"][-1], index=len(rep["levels"])))


def _half_increments(rep):
    rep["increments"] = ["1/2"] * len(rep["increments"])


def _set_field(field, value):
    def edit(rep):
        rep["levels"][1][field] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_cut_levels(0), "len(levels) is 0 in the report, 5 in the deterministic construction"),
    (_cut_levels(1), "len(levels) is 1 in the report, 5 in the deterministic construction"),
    (_extra_level, "len(levels) is 6 in the report, 5 in the deterministic construction"),
    (_half_increments, "level 0: stored increment does not match"),
    (_set_field("entry", 999), "level 1: stored field 'entry' does not match"),
    (_set_field("span", 12345), "level 1: stored field 'span' does not match"),
    (_set_field("index", 7), "level 1: stored field 'index' does not match"),
    (_set_field("residues", [1]), "level 1: stored field 'residues' does not match"),
    (lambda rep: rep.__setitem__("levels", 5), "stored levels is not a list"),
    (lambda rep: rep.__setitem__("levels", [1, 2, 3, 4, 5]),
     "level 0: stored field 'index' does not match"),
], ids=["no-levels", "one-level", "extra-level", "half-increments", "entry", "span",
        "index", "residues", "levels-no-list", "level-no-object"])
def test_a_tampered_report_is_a_contract_violation(edit, message, tmp_path, capsys):
    out = tmp_path / "family.json"
    assert main(["witness", "build", "--kappa", "1/2", "--depth", "3", "--format", "json",
                 "--out", str(out)]) == 0
    assert main(["witness", "verify", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    edit(doc["report"])
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["witness", "verify", str(out), "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("contract violation: " + message)


def test_axioms_battery_passes(capsys):
    assert main(["axioms", "pseudometric", "d-star",
                 "--samples", "24", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out


def test_axioms_json_battery_deterministic(capsys):
    argv = ["axioms", "upper-density", "bd-star", "--samples", "15",
            "--seed", "11", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    names = [r["name"] for r in doc["report"]["records"]]
    assert any(n.endswith("dilation[0,k=5]") for n in names)
    assert any(n.endswith("shift-invariant[0,h=100]") for n in names)


def test_limit_verbs(capsys):
    assert main(["limit", "tail-cut", "powers", "--depth", "8",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["verdict"] == "certified"
    # the weighted tails of the finite increments are exact, so the cuts exist
    assert main(["limit", "tail-cut", "multiples", "--measure",
                 "norm:weighted:f=harmonic", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["verdict"] == "certified"
    assert main(["limit", "sigma", "multiples", "--depth", "6",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["verdict"] == "certified"
    assert main(["limit", "cauchy", "evens", "--depth", "6",
                 "--format", "json"]) == 0
    capsys.readouterr()


_LIMIT_REPORTS = {
    ("sigma", "multiples", None):
        "f4de3c12ed2432f37f08aa551b58e2244d06bc25032c4329fce5ab78a4f32b3a",
    ("sigma", "evens", None):
        "60a95362b2b43d4d2376501c35c3fcc27ad66b3c968c42c3519954cf6cf127f9",
    ("cauchy", "multiples", None):
        "64b59fad9a652bb1bc4d8ea152fc9d16f276381cb145489808542db50c454058",
    ("cauchy", "evens", None):
        "bdb5fad72f6888e244e9590049c1c470b4cdab734ba8db6d768bd055e4aa7e3a",
    ("tail-cut", "powers", None):
        "50311d0e127b3905faf21d9863aeacaaa2e48cc2651a2f9ddbd218a6c4588a30",
    ("tail-cut", "multiples", "norm:phi-prefix"):
        "e1c8f671f78c27232e8c36dfe34ac2b285521e211324f454ba3f33d2a76831e9",
}


@pytest.mark.parametrize("method,family,measure", sorted(
    _LIMIT_REPORTS, key=lambda k: (k[0], k[1], k[2] or "")))
def test_limit_reports_are_pinned(method, family, measure, capsys):
    """The json report of every accepted limit method and family at depth 6,
    byte for byte: the certificate pipelines may be restructured, their
    reports may not move."""
    argv = ["limit", method, family, "--depth", "6", "--format", "json"]
    if measure:
        argv += ["--measure", measure]
    assert main(argv) == 0
    data = capsys.readouterr().out.encode()
    assert hashlib.sha256(data).hexdigest() == _LIMIT_REPORTS[method, family, measure]


# the exit code and json report of `limit cauchy <family> --depth 12`, by
# family and measure (None: the family's default); under d-star and the
# phi-prefix norm every stage lies at distance 1/3 or 1/2 from the union
# limit, so no stage keeps within the tail bound and the verdict is
# observed-only
_CAUCHY_DEPTH_12 = {
    ("multiples", None):
        (0, "a36eb8b4c6feb68906df2b11f22e85e1b9cb6a4d3e0a63ca101da8891c2f72b9"),
    ("multiples", "d-star"):
        (1, "4fbab7112c19dbc5fa909e7bff601301207874ae22d6bf833f6380b48ff612bc"),
    ("multiples", "norm:phi-prefix"):
        (1, "4fbab7112c19dbc5fa909e7bff601301207874ae22d6bf833f6380b48ff612bc"),
    ("evens", None):
        (0, "a42804f1021f6819a77d150cf9a20d0ede990408d2475135e1f03944c3974710"),
    ("evens", "d-star"):
        (1, "62087335a2882be83c88b3d640648a63e0e137792e2f284daba513e104ca370e"),
    ("evens", "norm:phi-prefix"):
        (1, "62087335a2882be83c88b3d640648a63e0e137792e2f284daba513e104ca370e"),
}


@pytest.mark.parametrize("family,measure", list(_CAUCHY_DEPTH_12))
def test_deep_cauchy_reports_are_pinned(family, measure, capsys):
    """The Cauchy pipeline's stage audit and its oracle calls may skip
    repeated work; the report they print at depth 12 may not move."""
    argv = ["limit", "cauchy", family, "--depth", "12", "--format", "json"]
    if measure:
        argv += ["--measure", measure]
    code, digest = _CAUCHY_DEPTH_12[family, measure]
    assert main(argv) == code
    data = capsys.readouterr().out.encode()
    assert hashlib.sha256(data).hexdigest() == digest


# the json report of `witness verify` on a freshly built family, by kappa
# and depth
_WITNESS_VERIFY_REPORTS = {
    ("1/2", 1):
        "53a80d28ffe692038b1e7d8821226407d658c2d7de4156eda274aa2a005b448d",
    ("1/2", 2):
        "a5027bdddbf3c08fd9349b5f16965c476622e2dc1c78ec8766d105f21f64ddc9",
    ("1/2", 3):
        "ba3aa788ec48a20dd6d43912d5006b82b65c878bee4b675cb516367455cc2461",
    ("1/2", 4):
        "6b6d4b061860a71b8d2929e887892ff3b3e488ec64b9509d88bbe9115a688dba",
    ("1/3", 1):
        "6920b575c026f5e2a3ff1572c850b898cf0d5347fb549ceeec3f4b303650923b",
    ("1/3", 2):
        "067a1bc788c840f3bb526fd9298685e2e8ce37b0ecae54fc9289332b0afa2d5d",
    ("1/3", 3):
        "ca8d8f30d0028f09bd24bd919e92ee35a53ae0973d57ac94de9e5ca8bd972819",
    ("1/3", 4):
        "bc0b5f9294a04166a04534566e5c3f905aaab5c8c6cb41874643694bbdb08fde",
    ("1/2", 8):
        "4033749962f131bff40f81a8caaf1b313045d6d9ed1a1cc487a86ac7c2849b8e",
    ("1/2", 14):
        "345e084540b1049c509cbdabe6b767d3dc89dab433f9f11464ef0e80aa54768a",
    ("1/3", 8):
        "15453a9ebd52d30db130cd42bb0b00fba38469ec0b6ba12874f190317967127a",
    ("1/3", 14):
        "f9dcbf0eb1a73dada3a5625fbd38a5d602ee55b829aaabdaa55c89d20f426c61",
}


@pytest.mark.parametrize("kappa,depth", sorted(_WITNESS_VERIFY_REPORTS))
def test_witness_verify_reports_are_pinned(kappa, depth, tmp_path, capsys):
    """The certificates behind `witness verify` may be restructured, the
    report they print may not move."""
    out = tmp_path / "family.json"
    assert main(["witness", "build", "--kappa", kappa, "--depth", str(depth),
                 "--format", "json", "--out", str(out)]) == 0
    assert main(["witness", "verify", str(out), "--format", "json"]) == 0
    data = capsys.readouterr().out.encode()
    assert hashlib.sha256(data).hexdigest() == _WITNESS_VERIFY_REPORTS[kappa, depth]


_GRID_MEASURES = ("d-star", "bd-star", "buck", "weighted:f=harmonic", "weighted:f=constant",
                  "counting", "geometric", "phi-prefix", "norm:phi-prefix", "norm:psi-dyadic",
                  "norm:phi-alpha:a=2", "norm:harmonic")
# sha256 over (argv, exit code, stdout, stderr) of every measure and depth
# 2, 5 and 9, by method and family
_LIMIT_GRID = {
    ("sigma", "powers"):
        "5fe3ef7458b73a270f6bc1953664bb4a0c6706dfccb30aa30771af9cb1b771f9",
    ("sigma", "multiples"):
        "45529dded7f6136a9214d6f914d3be4ab81d97a1f051987c7477763b0ebe3ee1",
    ("sigma", "evens"):
        "c5ce04bd804733ed26853881c4ee92a13e33d3d148e273b2ce5672e16f84895f",
    ("cauchy", "powers"):
        "bfb2a024eb4e10717c44bb8a8b423c162809ca4c1e344fbabe8e03fe2335fb94",
    ("cauchy", "multiples"):
        "a62e14346eb4a3064c12e82d5ae907ec38619de2a02132d37ef2558d802c7eb6",
    ("cauchy", "evens"):
        "cbe3369ba69b13b7090cf6ea530b98159bfa415d75f80ae1bbca07c604060ac8",
    ("tail-cut", "powers"):
        "26d2ed990c922915d28f3e6580f5b3f65e945604505625a8661d8205d68690f4",
    ("tail-cut", "multiples"):
        "4848e8553e4ae6041cb38da8c0ba08b8ea4e2f4a38b39dd733339a82a9207f33",
    ("tail-cut", "evens"):
        "9366b0b05df8d27cffc78be0cf7e14b7d6e927ddd5443941ba11ab42b7fe0404",
}


def _limit_grid_digest(method, family, capsys):
    h = hashlib.sha256()
    for measure in _GRID_MEASURES:
        for depth in ("2", "5", "9"):
            argv = ["limit", method, family, "--measure", measure, "--depth", depth,
                    "--format", "json"]
            code = main(argv)
            out, err = capsys.readouterr()
            h.update(json.dumps([argv, code, out, err]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("method,family", list(_LIMIT_GRID))
def test_limit_grid_is_pinned(method, family, capsys):
    """Every accepted measure at three depths, errors included: exit code,
    report and error line, byte for byte."""
    assert _limit_grid_digest(method, family, capsys) == _LIMIT_GRID[method, family]


# sha256 over (argv, exit code, stdout, stderr) of `limit tail-cut` under the
# norms of the three σ-additive measures at depths 1 to 14, every family; at
# depth 14 the last increment of powers is {4096}, at the geometric cap
_ADDITIVE_TAIL_CUT = "f726ae066981a4fb9e04ed38720c38f5dbbebf21941e10b52f7257b71ac3234a"


def test_tail_cut_on_the_additive_norms_is_pinned(capsys):
    h = hashlib.sha256()
    for family in ("powers", "multiples", "evens"):
        for measure in ("norm:counting", "norm:harmonic", "norm:geometric"):
            for depth in range(1, 15):
                argv = ["limit", "tail-cut", family, "--measure", measure,
                        "--depth", str(depth), "--format", "json"]
                code = main(argv)
                out, err = capsys.readouterr()
                h.update(json.dumps([argv, code, out, err]).encode())
    assert h.hexdigest() == _ADDITIVE_TAIL_CUT


def test_limit_on_powers_stops_at_the_declared_empty_limit(capsys):
    # the family declares the limit ∅, which no union pipeline can contain
    # its stages in; the raise and its message are part of the contract, and
    # both name the stage by its sequence index: the Cauchy modulus starts at
    # A_2 = {1, 2}
    for method, stage in (("sigma", 1), ("cauchy", 2)):
        assert main(["limit", method, "powers", "--depth", "6"]) == 3
        assert capsys.readouterr().err == (
            f"NotMonotone: stage {stage} is not contained in the limit candidate\n")


def test_limit_usage_errors(capsys):
    assert main(["limit", "sigma", "nonesuch"]) == 2
    assert main(["limit", "tail-cut", "powers", "--measure", "d-star"]) == 2
    capsys.readouterr()


def test_limit_depth_is_capped_by_the_prefix_size(monkeypatch, capsys):
    # the evens and multiples prefixes hold d(d+1)/2 naturals at depth d:
    # 1,047,628 at 1447, under natset's cap of 2^20 on one set's size, and
    # 1,049,076 at 1448, past it; the pipeline is stubbed out at the cap
    seen = []

    def stub(nu, seq, depth=None, config=None):
        seen.append(len(seq.prefix))
        raise NotCauchy("stub")

    monkeypatch.setattr(limits, "sigma_limit", stub)
    assert main(["limit", "sigma", "evens", "--depth", "1447"]) == 3
    assert seen == [1447] and capsys.readouterr().err == "NotCauchy: stub\n"
    for family in ("evens", "multiples"):
        assert main(["limit", "sigma", family, "--depth", "1448"]) == 2
        assert capsys.readouterr().err == (
            f"usage error: --depth 1448 is too deep: the {family} prefix would "
            "hold more than 1048576 naturals\n")
    assert seen == [1447]


# the set algebra of the bench's limit argv at depth 12: the most
# `boolean_op` calls of each op and `evaluate_measure` calls ("evaluate");
# an op not listed is not called. A verified nested Cauchy chain is handed
# to the oracle as it is, so it makes no union, and the oracle gets it as a
# list, so its containment is proved once, on the prefix: 11 differences,
# then 3 per distinct stage (4 for multiples, 6 for evens) and one per
# increment between them.
_LIMIT_WORK_12 = {
    ("cauchy", "multiples"):
        {"difference": 26, "symdiff": 12, "evaluate": 27},
    ("cauchy", "evens"):
        {"difference": 34, "symdiff": 12, "evaluate": 35},
    ("sigma", "multiples"):
        {"difference": 46, "evaluate": 35},
    ("tail-cut", "powers", "--measure", "norm:phi-prefix"):
        {"difference": 46},
}


@pytest.mark.parametrize("argv", list(_LIMIT_WORK_12))
def test_limit_set_algebra_is_pinned(argv, monkeypatch, capsys):
    counts = collections.Counter()
    op_body, evaluate_body = natset.boolean_op, metric.evaluate_measure

    def op(a, b, kind, *rest, **kw):
        counts[kind] += 1
        return op_body(a, b, kind, *rest, **kw)

    def evaluate(*args, **kw):
        counts["evaluate"] += 1
        return evaluate_body(*args, **kw)

    for module in (natset, metric, limits):
        monkeypatch.setattr(module, "boolean_op", op)
    for module in (metric, limits):
        monkeypatch.setattr(module, "evaluate_measure", evaluate)
    assert main(["limit", *argv, "--depth", "12", "--format", "json"]) == 0
    capsys.readouterr()
    most = _LIMIT_WORK_12[argv]
    assert counts and all(n <= most.get(kind, 0) for kind, n in counts.items()), counts


@pytest.mark.parametrize("argv", [
    ("sigma", "multiples"), ("sigma", "evens"), ("cauchy", "multiples"), ("cauchy", "evens"),
    ("tail-cut", "powers"), ("tail-cut", "multiples", "--measure", "norm:phi-prefix")])
def test_limit_builds_each_stage_once(argv, monkeypatch, capsys):
    # the prefix is built from the family rule stage by stage and the
    # sequence's rule reads it back, so the rule-prefix check compares each
    # stage with itself and the family rule runs once per stage
    rule, *rest = cli._FAMILIES[argv[1]]
    calls = []
    monkeypatch.setitem(cli._FAMILIES, argv[1], (lambda n: calls.append(n) or rule(n), *rest))
    assert main(["limit", *argv, "--depth", "12", "--format", "json"]) == 0
    capsys.readouterr()
    assert calls == list(range(12))


def test_witness_build_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "family.json"
    assert main(["witness", "build", "--kappa", "1/2", "--depth", "3",
                 "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["params"]["schedule"] == [8, 9, 10, 11, 12, 13]
    assert doc["report"]["levels"][2]["residues"] == [1, 2]
    assert main(["witness", "verify", str(out), "--horizon", "100000",
                 "--format", "json"]) == 0
    vdoc = json.loads(capsys.readouterr().out)
    assert vdoc["report"]["invariants_passed"] is True
    assert vdoc["report"]["cauchy_certified"] is True
    assert vdoc["report"]["gap"]["verdict"] == \
        "no-banach-density-over-certified-range"


def test_witness_verify_rejects_tampered_file(tmp_path, capsys):
    out = tmp_path / "family.json"
    main(["witness", "build", "--depth", "2", "--format", "json",
          "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["report"]["levels"][1]["residues"] = [7]
    out.write_text(json.dumps(doc))
    assert main(["witness", "verify", str(out)]) == 3
    capsys.readouterr()


def _set(doc: dict, path: str, value) -> None:
    *outer, key = path.split(".")
    for name in outer:
        doc = doc[name]
    doc[key] = value


_MALFORMED_REPORTS = {
    "a top-level list": (lambda doc: [doc], "usage error: the stored report must be "
                         "an object, not a list\n"),
    "params": (lambda doc: _set(doc, "report.params", []),
               "usage error: stored 'params' must be an object, not a list\n"),
    "schedule": (lambda doc: _set(doc, "report.params.schedule", 5),
                 "usage error: stored 'schedule' must be a list, not an integer\n"),
    "depth": (lambda doc: _set(doc, "report.depth", [1]),
              "usage error: stored 'depth' must be an integer, not a list\n"),
    "kappa": (lambda doc: _set(doc, "report.params.kappa", None),
              "usage error: stored 'kappa' must be a string, not null\n"),
    "demo": (lambda doc: _set(doc, "report.demo", 1),
             "usage error: stored 'demo' must be true or false, not an integer\n"),
    "missing depth": (lambda doc: {"report": {k: v for k, v in doc["report"].items()
                                              if k != "depth"}},
                      "usage error: 'depth'\n"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_REPORTS))
def test_witness_verify_refuses_a_malformed_report(case, tmp_path, capsys):
    # each stored field is read with its JSON type checked: a wrong one is a
    # usage error that names it, not a TypeError traceback; `change` edits
    # the report in place or returns the document to write
    out = tmp_path / "family.json"
    assert main(["witness", "build", "--depth", "2", "--format", "json",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    change, err = _MALFORMED_REPORTS[case]
    out.write_text(json.dumps(change(doc) or doc))
    assert main(["witness", "verify", str(out)]) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("entry", [1001, 100000])
def test_witness_verify_refuses_a_schedule_entry_past_the_factorial_cap(
        entry, tmp_path, capsys, monkeypatch):
    # the grammar's own N! cap bounds a stored entry before any factorial
    # is computed: 100000! took seconds and failed on Python's digit limit
    out = tmp_path / "family.json"
    assert main(["witness", "build", "--depth", "2", "--format", "json",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["report"]["params"]["schedule"][3] = entry
    out.write_text(json.dumps(doc))

    def refuse(n):
        raise AssertionError(f"{n}! computed")

    monkeypatch.setattr(math, "factorial", refuse)
    assert main(["witness", "verify", str(out)]) == 2
    assert capsys.readouterr() == ("", "usage error: stored 'schedule' entry 3 must "
                                   "be an integer at most 1000\n")


def test_witness_build_refuses_a_derived_schedule_past_the_factorial_cap(
        capsys, monkeypatch):
    # depth 992 derives a schedule ending at 1001, which `witness verify`
    # would refuse: the build stops before constructing anything
    def refuse(*args, **kwargs):
        raise AssertionError("build_witness called")

    monkeypatch.setattr(witness, "build_witness", refuse)
    assert main(["witness", "build", "--kappa", "1/2", "--depth", "992"]) == 2
    assert capsys.readouterr() == ("", "usage error: derived 'schedule' entry 993 must "
                                   "be an integer at most 1000\n")


@pytest.mark.parametrize("kappa", [Fraction(1, 2), Fraction(2, 3)])
def test_the_deepest_buildable_schedule_ends_at_the_factorial_cap(kappa):
    # depth 991 needs 993 entries; the last is the cap itself
    assert derive_params(kappa, levels=991 + 2).schedule[-1] == 1000


@pytest.mark.parametrize("horizon", ["0", "-5"])
def test_witness_verify_refuses_a_horizon_below_one(horizon, tmp_path, capsys):
    out = tmp_path / "family.json"
    assert main(["witness", "build", "--depth", "2", "--format", "json",
                 "--out", str(out)]) == 0
    assert main(["witness", "verify", str(out), "--horizon", horizon]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: the witness horizon must be >= 1, got {horizon}\n"


def test_probe_verb_finds_divergence(capsys):
    assert main(["probe", "norm:phi-infty-trunc:a=4", "norm:psi-dyadic",
                 "--depth", "4", "--targets", "1,2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["verdict"] == "ratio-diverges"


def test_probe_verb_inconclusive_exits_1(capsys):
    assert main(["probe", "norm:phi-infty-trunc:a=4", "norm:psi-dyadic",
                 "--depth", "3", "--targets", "1000000"]) == 1
    capsys.readouterr()


def test_probe_bounds(capsys):
    # d*/bd* on the thinning family is 2/3, 2/5, 2/9: inside [1/8, 1]
    assert main(["probe", "d-star", "bd-star", "--depth", "3", "--bounds", "1/8,1",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["verdict"] == "two-sided-bounded"
    assert main(["probe", "d-star", "bd-star", "--depth", "3", "--bounds", "1"]) == 2
    assert capsys.readouterr().err == "usage error: --bounds wants `lo,hi`\n"


def test_lscsm_battery_through_main(capsys):
    assert main(["axioms", "lscsm", "phi-prefix", "--samples", "6", "--seed", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(", 0 failed, 0 skipped")


# one argv per verb; `{family}` is a witness family built at depth 1
_VERBS = [
    ["eval", "d-star", "per m=6 R={1,3}"],
    ["dist", "bd-star", "ap a=6 h=1 | ap a=4 h=3", "fin{2,5}"],
    ["norm", "phi-alpha:a=2", "blocks f(n)=1/3"],
    ["axioms", "pseudometric", "d-star", "--samples", "6"],
    ["axioms", "upper-density", "bd-star", "--samples", "3"],
    ["axioms", "submeasure", "buck", "--samples", "3"],
    ["axioms", "lscsm", "psi-dyadic", "--samples", "3"],
    ["limit", "sigma", "evens", "--depth", "4"],
    ["limit", "tail-cut", "powers", "--depth", "4"],
    ["limit", "cauchy", "multiples", "--depth", "4"],
    ["witness", "build", "--depth", "1"],
    ["witness", "verify", "{family}", "--horizon", "1000"],
    ["probe", "d-star", "bd-star", "--depth", "3", "--targets", "1"],
    ["probe", "d-star", "bd-star", "--depth", "3", "--bounds", "1/8,1"],
    ["probe", "d-star", "bd-star", "--depth", "3"],
]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("argv", _VERBS, ids=" ".join)
def test_every_verb_answers_in_every_format(argv, fmt, tmp_path, capsys):
    family = tmp_path / "family.json"
    if "{family}" in argv:
        assert main(["witness", "build", "--depth", "1", "--format", "json",
                     "--out", str(family)]) == 0
    code = main([a.replace("{family}", str(family)) for a in argv] + ["--format", fmt])
    out, err = capsys.readouterr()
    assert code in (0, 1) and "Traceback" not in err
    if fmt == "csv":
        lines = out.splitlines()
        assert lines[0].startswith("# version=") and lines[1].startswith("# config=")
        assert lines[2] in ("key,value", "name,status,detail")
        assert len(lines) > 3


def test_config_file_is_honoured(tmp_path, capsys):
    cfg = tmp_path / "densitas.cfg"
    cfg.write_text("modulus_budget = 12\n")
    # the symdiff needs lcm(6, 35) = 210 residues, beyond the tiny budget
    assert main(["dist", "d-star", "per m=6 R={1}", "per m=35 R={2}",
                 "--config", str(cfg)]) == 3
    capsys.readouterr()


def test_bad_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "densitas.cfg"
    cfg.write_text("nonsense_knob = 3\n")
    assert main(["eval", "d-star", "fin{1}", "--config", str(cfg)]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# one parser per process

# a usage error, --version, eval in the three formats, then a witness built
# to a file and verified from it
_SESSION = [
    ["eval"],
    ["--version"],
    ["eval", "d-star", "per m=6 R={1,3}"],
    ["eval", "d-star", "per m=6 R={1,3}", "--format", "json"],
    ["eval", "d-star", "ap a=6 h=1 | ap a=4 h=3", "--format", "csv"],
    ["witness", "build", "--kappa", "1/2", "--depth", "2", "--format", "json",
     "--out", "w.json"],
    ["witness", "verify", "w.json", "--format", "json"],
    # the paths that load exhaust and limits on their first call
    ["norm", "phi-prefix", "per m=3 R={0}"],
    ["eval", "phi-prefix", "per m=3 R={0}", "--format", "json"],
    ["dist", "norm:phi-prefix", "per m=3 R={0}", "fin{1}"],
    ["limit", "cauchy", "multiples", "--depth", "4", "--format", "json"],
    ["axioms", "lscsm", "counting", "--samples", "6", "--seed", "2"],
]


def test_the_parser_is_built_once_per_process(capsys):
    parser = _build_parser()
    assert main(["eval", "d-star", "fin{1}"]) == 0
    assert main(["dist", "d-star", "fin{1}", "fin{2}"]) == 0
    assert _build_parser() is parser
    capsys.readouterr()


# argv that parse: the benchmark's shapes, a repeated option (the last one
# wins), a repeated flag, an empty positional, a choice after a positional,
# values `int` reads its own way; abbreviated and `=` options, options
# before positionals, `--`; then argv that print help or fail: no verb, an
# unknown verb, `-h` at the top and per verb, `eval --version`, an extra or
# missing positional, a bad choice, a negative or bad int, a missing or
# unknown witness subverb
_ARGV_CASES = [
    ["eval", "d-star", "fin{1}"],
    ["limit", "cauchy", "multiples", "--measure", "norm:phi-prefix", "--depth", "7",
     "--format", "json"],
    ["witness", "verify", "w.json", "--horizon", "1000", "--format", "json"],
    ["witness", "build", "--kappa", "1/3", "--depth", "2", "--format", "json"],
    ["eval", "d-star", "fin{1}", "--format", "json", "--format", "csv"],
    ["witness", "build", "--demo", "--demo"],
    ["eval", "", "fin{1}"],
    ["limit", "cauchy", "evens", "--format", "csv"],
    ["limit", "sigma", "evens", "--depth", "1_0"],
    ["limit", "sigma", "evens", "--depth", " 5"],
    ["eval", "--form", "json", "d-star", "fin{1}"],
    ["eval", "--format=json", "d-star", "fin{1}"],
    ["eval", "--out", "x.json", "--format", "csv", "buck", "fin{1}"],
    ["eval", "--", "d-star", "-1"],
    ["dist", "d-star", "fin{1}", "fin{2}", "--config", "c.cfg"],
    ["norm", "psi-dyadic", "fin{1}", "--format", "text"],
    ["axioms", "--samples", "3", "lscsm", "counting", "--seed=2"],
    ["limit", "sigma", "evens", "--depth", "4", "--measure", "d-star"],
    ["limit", "sigma", "evens", "--depth", "-3"],
    ["witness", "build", "--kappa", "1/3", "--demo"],
    ["witness", "verify", "w.json", "--horizon", "10"],
    ["probe", "d-star", "bd-star", "--targets", "1,2", "--bounds", "0,1"],
    [], ["nonesuch", "d-star"], ["-h"], ["--version"], ["--version", "eval"],
    ["eval", "-h"], ["witness", "build", "-h"], ["eval", "--version"],
    ["eval", "d-star", "fin{1}", "junk"], ["eval", "d-star", "fin{1}", "--", "junk", "--zz"],
    ["eval", "d-star"], ["eval", "--format", "xml", "d-star", "fin{1}"],
    ["eval", "d-star", "fin{1}", "--format", "xml"], ["limit", "sigma", "evens", "--depth", "x"],
    ["axioms", "nonesuch", "d-star"], ["axioms", "lscsm", "counting", "--samples", "x"],
    ["witness"], ["witness", "frob"], ["witness", "build", "extra"],
]


def _parsed(parse, argv, capsys):
    try:
        got = repr(parse(argv))  # the repr tells True from 1 and shows the order
    except SystemExit as e:  # usage errors, help and --version
        got = e.code
    out, err = capsys.readouterr()
    return got, out, err


@pytest.mark.parametrize("argv", _ARGV_CASES, ids=lambda a: " ".join(a) or "no-args")
def test_argv_parse_like_the_full_parser(argv, monkeypatch, capsys):
    """Reading argv straight from the parser's actions gives the Namespace,
    or the exit code, help and error text, of the full parser."""
    monkeypatch.setenv("COLUMNS", "80")
    got = _parsed(_parse_argv, argv, capsys)
    assert got == _parsed(_build_parser().parse_args, argv, capsys)
    if isinstance(got[0], str):
        assert got[0].startswith("Namespace(") and got[1:] == ("", "")
    else:
        assert _parsed(main, argv, capsys) == got


def _actions(parser, positional):
    return [a for a in parser._actions if bool(a.option_strings) != positional]


# words argparse reads its own way: empty, spaced, signed and underscored
# numbers, lone dashes, help, abbreviated, `=` and unknown options
_ODD_WORDS = ["", "x y", "-3", "1_0", " 5", "-", "--", "-h", "--help", "--version",
              "--form", "--format=json", "--dep", "-x", "junk"]


@st.composite
def _drawn_argv(draw):
    """An argv drawn from the actions of one verb's parser (and of the
    witness subverb's): its positionals' choices or words, its options with
    valid and invalid values, in any order, now and then an odd word."""
    words, parser = [], _build_parser()
    while (sub := next((a for a in parser._actions if a.nargs == argparse.PARSER),
                       None)) is not None:
        name = draw(st.sampled_from(sorted(sub.choices) + ["nonesuch"]))
        words.append(name)
        if name not in sub.choices:
            return words
        parser = sub.choices[name]
    items = []
    for a in _actions(parser, positional=True):
        if draw(st.integers(0, 9)):  # now and then a positional is missing
            items.append([draw(st.sampled_from(list(a.choices or ["d-star", "fin{1}"])
                                               + ["xml", ""]))])
    for _ in range(draw(st.integers(0, 4))):
        a = draw(st.sampled_from(_actions(parser, positional=False)))
        flag = draw(st.sampled_from(a.option_strings))
        if a.nargs == 0:
            items.append([flag])
            continue
        good = list(a.choices or (["0", "7", "12"] if a.type is int else ["1/3", "c.cfg"]))
        odd = not draw(st.integers(0, 3))
        items.append([flag, draw(st.sampled_from(_ODD_WORDS + ["xml"] if odd else good))])
    items = draw(st.permutations(items))
    for _ in range(draw(st.integers(0, 1))):
        items.insert(draw(st.integers(0, len(items))), [draw(st.sampled_from(_ODD_WORDS))])
    return words + [w for item in items for w in item]


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_drawn_argv())
def test_drawn_argv_parse_like_the_full_parser(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    got = _parsed(_parse_argv, argv, capsys)
    assert got == _parsed(_build_parser().parse_args, argv, capsys)


def test_well_formed_argv_never_reach_argparse(tmp_path, monkeypatch, capsys):
    """The benchmark's argv shapes answer through `main` with argparse's
    parsing switched off: the reader reads them itself."""
    def refuse(*args, **kw):
        raise AssertionError("argparse parsed a well-formed argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    w = str(tmp_path / "w.json")
    assert main(["witness", "build", "--kappa", "1/2", "--depth", "2",
                 "--format", "json", "--out", w]) == 0
    for argv in (["limit", "cauchy", "multiples", "--measure", "geometric",
                  "--depth", "7", "--format", "json"],
                 ["witness", "verify", w, "--horizon", "1000", "--format", "json"],
                 ["witness", "build", "--kappa", "1/3", "--depth", "2", "--format", "json"],
                 ["eval", "d-star", "per m=6 R={1,3}"],
                 ["norm", "phi-alpha:a=2", "blocks f(n)=1/3", "--format", "csv"]):
        assert main(argv) == 0
        assert capsys.readouterr().out
    with pytest.raises(AssertionError, match="argparse parsed"):
        main(["eval", "--form", "json", "d-star", "fin{1}"])


def test_one_process_answers_like_fresh_ones(tmp_path, monkeypatch, capsys):
    """The same argv give the same bytes and exit codes whether they share
    one process (and its parser) or each start the console entry point."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at this width
    monkeypatch.delenv("DENSITAS_CONFIG", raising=False)
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    shared = []
    for argv in _SESSION:
        try:
            code = main(argv)
        except SystemExit as e:  # argparse: usage errors and --version
            code = e.code
        out, err = capsys.readouterr()
        shared.append((code, out, err))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(Path(densitas.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    entry = "import sys; from densitas.cli import main; sys.exit(main())"
    separate = []
    for argv in _SESSION:
        done = subprocess.run([sys.executable, "-c", entry, *argv], cwd=fresh,
                              env=env, capture_output=True, text=True, timeout=120)
        separate.append((done.returncode, done.stdout, done.stderr))
    assert [c for c, _, _ in shared] == [2] + [0] * (len(_SESSION) - 1)
    assert shared == separate
    assert (here / "w.json").read_bytes() == (fresh / "w.json").read_bytes()
