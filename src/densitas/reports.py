"""Check records, axiom reports, and the canonical payload encoding.

Reports are plain data. The payload encoder turns them (and anything built
from dataclasses, Fractions, and containers) into JSON-ready structures with
a stable convention: rationals render as "p/q" strings (integers as "p"),
mappings get sorted keys downstream, and no timestamps or machine identifiers
ever appear, so byte-identical reruns stay byte-identical.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional


@dataclass(frozen=True)
class CheckRecord:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""
    witness: Any = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


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


def format_fraction(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def to_payload(obj: Any) -> Any:
    """Recursively encode for JSON/CSV emission (exact rationals stay exact).

    Floats raise TypeError: every value the library reports is exact, so a
    float reaching the encoder is a bug upstream, never a rounding to keep.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        raise TypeError(f"payloads carry exact values only, got float {obj!r}")
    if isinstance(obj, Fraction):
        return format_fraction(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {}
        for f in dataclasses.fields(obj):
            if f.name.startswith("_"):
                continue
            out[f.name] = to_payload(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): to_payload(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_payload(x) for x in seq]
    if isinstance(obj, bytes):
        return obj.hex()
    return repr(obj)
