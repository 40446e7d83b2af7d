"""Check records, axiom reports, and the canonical payload encoding.

Reports are plain data. The payload encoder turns them (and anything built
from dataclasses, Fractions, and containers) into JSON-ready structures with
a stable convention: rationals render as "p/q" strings (integers as "p"),
mappings get sorted keys downstream, and no timestamps or machine identifiers
ever appear, so byte-identical reruns stay byte-identical. The json writer
`to_json` prints the same text as json.dumps of that payload with sorted keys
and an indent of 2, straight from the objects, and `_rows` gives the csv and
text rows of the payload's leaves the same way.

All three walks read a node's children from `_children`. A dataclass is
read through its class's `_plan`, worked out once per class: its public
field names in declaration order and sorted, each with one getter of the
values (an attrgetter), so no walk looks a field up by name per node. The
json writer and the row walk write str, int, Fraction, None and bool leaves
in their item loops, by exact type; every other leaf goes through `_leaf`.
Integer text always comes from `format_int`, so an integer past Python's
digit limit raises UnprintableValue on every path. No rendered text is kept
from one call to the next.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape
from operator import attrgetter
from typing import Any, Callable, Iterable, Optional

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


# int's own decimal text, also of an int subclass whose repr is not (an
# IntEnum's); a module-level name saves the slot lookup per leaf
_int_text = int.__repr__


def format_int(n: int) -> str:
    """The decimal text of the int n; UnprintableValue when n has more
    digits than Python converts to a string."""
    try:
        return _int_text(n)
    except ValueError:
        raise UnprintableValue(f"an integer of {n.bit_length()} bits is past "
                               "the int-to-str digit limit") from None


def format_fraction(q: Fraction) -> str:
    """The text p/q, or p for an integer; UnprintableValue when p or q has
    more digits than Python converts to a string."""
    if type(q) is not Fraction:
        q = Fraction(q)
    try:
        return str(q)  # Fraction's own text is exactly p/q, or p
    except ValueError:
        # past the digit limit: spelled through format_int, which names the part
        n, d = q.as_integer_ratio()
        return format_int(n) if d == 1 else f"{format_int(n)}/{format_int(d)}"


@functools.cache
def _plan(cls: type) -> Optional[tuple[tuple[tuple[str, ...], Callable[[Any], tuple]], ...]]:
    """How every walk reads a dataclass, worked out once per class: (names,
    getter) for its public fields (those not starting with `_`) in
    declaration order, then for the same names sorted, where the getter
    reads the values in that order; None for any other class."""
    if not dataclasses.is_dataclass(cls):
        return None
    names = tuple(f.name for f in dataclasses.fields(cls) if not f.name.startswith("_"))
    return tuple((order, _getter(order)) for order in (names, tuple(sorted(names))))


def _getter(names: tuple[str, ...]) -> Callable[[Any], tuple]:
    """One call reading the named attributes as a tuple: attrgetter's C
    loop for two or more names (it returns one bare value for one name)."""
    if len(names) > 1:
        return attrgetter(*names)
    return lambda obj: tuple(getattr(obj, name) for name in names)


def _leaf(obj: Any) -> Any:
    """The payload of anything that is not a dataclass, mapping or
    collection: None, bools, ints and strings as they are, a Fraction as
    "p/q", bytes as hex and anything else as its repr.

    Floats raise TypeError: every value the library reports is exact, so a
    float reaching the encoder is a bug upstream, never a rounding to keep.
    An int with no decimal text raises UnprintableValue here too, as it
    does in the writers.
    """
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        format_int(obj)
        return obj
    if isinstance(obj, float):
        raise TypeError(f"payloads carry exact values only, got float {obj!r}")
    if isinstance(obj, Fraction):
        return format_fraction(obj)
    if isinstance(obj, bytes):
        return obj.hex()
    return repr(obj)


def _children(obj: Any, sort_keys: bool = False) -> Optional[tuple[bool, Iterable]]:
    """A node's children as every payload walk reads them, None for a leaf:
    (True, (key, child) pairs) for a dataclass's public fields in declaration
    order, read through its `_plan`, or a mapping's items under string keys,
    keys sorted if asked; (False, children) for a sequence or a set, a set
    sorted."""
    plan = _plan(type(obj))
    if plan is not None:
        names, get = plan[sort_keys]
        return True, zip(names, get(obj))
    if isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}.items()
        return True, sorted(items) if sort_keys else items
    if isinstance(obj, (list, tuple, set, frozenset)):
        return False, sorted(obj) if isinstance(obj, (set, frozenset)) else obj
    return None


def to_payload(obj: Any) -> Any:
    """Recursively encode for JSON/CSV emission (exact rationals stay exact):
    a dataclass becomes a dict of its public fields in declaration order, a
    mapping a dict with string keys, a sequence or set a list (a set
    sorted), and everything else its `_leaf`."""
    node = _children(obj)
    if node is None:
        return _leaf(obj)
    if node[0]:
        return {k: to_payload(v) for k, v in node[1]}
    return [to_payload(x) for x in node[1]]


def to_json(obj: Any) -> str:
    """``json.dumps(to_payload(obj), sort_keys=True, indent=2)``, written in
    one walk over obj itself: no payload tree is built, and strings go
    through json's C escaper."""
    out: list[str] = []
    _write(obj, out, "\n")
    return "".join(out)


def _write(obj: Any, out: list[str], nl: str) -> None:
    """Append obj's JSON text to out; `nl` is a newline and the indent of
    the line obj starts on. A child whose exact type is str, int, Fraction,
    None or bool is written in the item loop itself; every other child is
    a node of its own, and any other leaf goes through `_leaf`."""
    node = _children(obj, sort_keys=True)
    if node is None:
        leaf = _leaf(obj)  # None, a bool, or an int or str of any subclass
        if leaf is None or type(leaf) is bool:
            out.append("null" if leaf is None else "true" if leaf else "false")
        else:
            out.append(_escape(leaf) if isinstance(leaf, str) else format_int(leaf))
        return
    is_map, items = node
    inner = nl + "  "
    comma = "," + inner
    sep = ("{" if is_map else "[") + inner
    for x in items:
        if is_map:
            k, x = x
            sep = f"{sep}{_escape(k)}: "
        t = type(x)
        if t is Fraction:
            out.append(f'{sep}"{format_fraction(x)}"')
        elif t is str:
            out.append(sep + _escape(x))
        elif t is int:
            out.append(sep + format_int(x))
        elif x is None:
            out.append(sep + "null")
        elif t is bool:
            out.append(sep + ("true" if x else "false"))
        else:
            out.append(sep)
            _write(x, out, inner)
        sep = comma
    if sep is comma:
        out.append(nl + ("}" if is_map else "]"))
    else:
        out.append("{}" if is_map else "[]")


def _rows(obj: Any) -> list[tuple[str, str]]:
    """(key, value) for every leaf of obj's payload, in payload order, read
    from obj itself as `to_json` reads it: the rows csv and text print. A
    key joins field names and mapping keys by dots, with indices in brackets."""
    rows: list[tuple[str, str]] = []

    def walk(key: str, x: Any) -> None:
        t = type(x)
        if t is str:
            rows.append((key, x))
        elif t is int:
            rows.append((key, format_int(x)))
        elif t is Fraction:
            rows.append((key, format_fraction(x)))
        elif x is None:
            rows.append((key, ""))
        elif t is bool:
            rows.append((key, str(x)))
        else:
            node = _children(x)
            if node is None:
                rows.append((key, str(_leaf(x))))  # a str or int subclass, or a leaf's text
            elif node[0]:
                for k, y in node[1]:
                    walk(f"{key}.{k}" if key else k, y)
            else:
                for i, y in enumerate(node[1]):
                    walk(f"{key}[{i}]", y)

    walk("", obj)
    return rows
