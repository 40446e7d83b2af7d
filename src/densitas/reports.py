"""Check records, axiom reports, and the canonical payload encoding.

Reports are plain data. The payload encoder turns them (and anything built
from dataclasses, Fractions, and containers) into JSON-ready structures with
a stable convention: rationals render as "p/q" strings (integers as "p"),
mappings get sorted keys downstream, and no timestamps or machine identifiers
ever appear, so byte-identical reruns stay byte-identical. The json writer
`to_json` prints the same text as json.dumps of that payload with sorted keys
and an indent of 2, straight from the objects; both read their leaf rules
from `_leaf`.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape
from typing import Any, Optional

from .exceptions import UnprintableValue


@dataclass(frozen=True)
class CheckRecord:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""
    witness: Any = None


@dataclass(frozen=True)
class AxiomReport:
    subject: str
    records: tuple[CheckRecord, ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    @property
    def failures(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.records if r.status == "fail")

    def summary(self) -> str:
        n_pass = sum(1 for r in self.records if r.status == "pass")
        n_fail = sum(1 for r in self.records if r.status == "fail")
        n_skip = sum(1 for r in self.records if r.status == "skip")
        return f"{self.subject}: {n_pass} passed, {n_fail} failed, {n_skip} skipped"


def format_int(n: int) -> str:
    """The decimal text of the int n; UnprintableValue when n has more
    digits than Python converts to a string."""
    try:
        return int.__repr__(n)
    except ValueError:
        raise UnprintableValue(f"an integer of {n.bit_length()} bits is past "
                               "the int-to-str digit limit") from None


def format_fraction(q: Fraction) -> str:
    """The text p/q, or p for an integer; UnprintableValue when p or q has
    more digits than Python converts to a string."""
    if type(q) is not Fraction:
        q = Fraction(q)
    if q.denominator == 1:
        return format_int(q.numerator)
    return f"{format_int(q.numerator)}/{format_int(q.denominator)}"


@functools.cache
def _public_fields(cls: type) -> Optional[tuple[str, ...]]:
    """The field names of a dataclass not starting with `_`, in declaration
    order; None for any other class."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls) if not f.name.startswith("_"))


@functools.cache
def _sorted_fields(cls: type) -> Optional[tuple[str, ...]]:
    names = _public_fields(cls)
    return None if names is None else tuple(sorted(names))


def _leaf(obj: Any) -> Any:
    """The payload of anything that is not a dataclass, mapping or
    collection: None, bools, ints and strings as they are, a Fraction as
    "p/q", bytes as hex and anything else as its repr.

    Floats raise TypeError: every value the library reports is exact, so a
    float reaching the encoder is a bug upstream, never a rounding to keep.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        raise TypeError(f"payloads carry exact values only, got float {obj!r}")
    if isinstance(obj, Fraction):
        return format_fraction(obj)
    if isinstance(obj, bytes):
        return obj.hex()
    return repr(obj)


def to_payload(obj: Any) -> Any:
    """Recursively encode for JSON/CSV emission (exact rationals stay exact):
    a dataclass becomes a dict of its public fields in declaration order, a
    mapping a dict with string keys, a sequence or set a list (a set
    sorted), and everything else its `_leaf`."""
    names = _public_fields(type(obj))
    if names is not None:
        return {name: to_payload(getattr(obj, name)) for name in names}
    if isinstance(obj, dict):
        return {str(k): to_payload(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_payload(x) for x in seq]
    return _leaf(obj)


def to_json(obj: Any) -> str:
    """``json.dumps(to_payload(obj), sort_keys=True, indent=2)``, written in
    one walk over obj itself: no payload tree is built, strings go through
    json's C escaper, and each dataclass's sorted field names are looked up
    once per class."""
    out: list[str] = []
    _write(obj, out, "\n")
    return "".join(out)


# the JSON text of the values that are their own payload, by exact type;
# the walk writes these inline and hands every other leaf to `_leaf`
_SELF_JSON = {str: _escape, int: format_int, type(None): lambda _: "null",
              bool: lambda b: "true" if b else "false"}


def _write(obj: Any, out: list[str], nl: str) -> None:
    """Append obj's JSON text to out; `nl` is a newline and the indent of
    the line obj starts on."""
    names = _sorted_fields(type(obj))
    if names is not None:
        items = [(name, getattr(obj, name)) for name in names]
    elif isinstance(obj, dict):
        items = sorted({str(k): v for k, v in obj.items()}.items())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for x in sorted(obj) if isinstance(obj, (set, frozenset)) else obj:
            enc = _SELF_JSON.get(type(x))
            if enc is None:
                out.append(sep)
                _write(x, out, inner)
            else:
                out.append(sep + enc(x))
            sep = "," + inner
        out.append(nl + "]")
        return
    else:
        enc = _SELF_JSON.get(type(obj))
        if enc is None:
            obj = _leaf(obj)  # a str or int subclass stays as it is
            enc = _escape if isinstance(obj, str) else format_int
        out.append(enc(obj))
        return
    if not items:
        out.append("{}")
        return
    inner = nl + "  "
    sep = "{" + inner
    for k, v in items:
        enc = _SELF_JSON.get(type(v))
        if enc is None:
            out.append(sep + _escape(k) + ": ")
            _write(v, out, inner)
        else:
            out.append(sep + _escape(k) + ": " + enc(v))
        sep = "," + inner
    out.append(nl + "}")
