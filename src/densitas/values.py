"""Certified extended values.

Every quantity the evaluators report is one of:

- exact: a closed-form rational, correct by construction;
- bracket: a certified enclosure lower <= true value <= upper (either side
  may be None when unknown/unbounded on that side);
- observational: a point estimate backed only by finite evidence (horizon
  prefixes, truncated weighted sums); no tail guarantee whatsoever;
- infinite: +infinity (counting measure of an infinite set and the like).

Downstream code must branch on `status` before trusting anything; comparisons
between certified values go through `surely_lt` / `surely_eq`, which refuse to
conclude from observational inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

__all__ = ["ExtValue", "exact", "bracket", "observational", "infinite",
           "surely_lt", "surely_eq"]


@dataclass(frozen=True)
class ExtValue:
    status: str  # "exact" | "bracket" | "observational" | "infinite"
    value: Optional[Fraction] = None
    lower: Optional[Fraction] = None
    upper: Optional[Fraction] = None
    note: str = ""

    def __post_init__(self):
        if self.status not in ("exact", "bracket", "observational", "infinite"):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == "exact":
            if self.value is None:
                raise ValueError("exact value required")
            object.__setattr__(self, "lower", self.value)
            object.__setattr__(self, "upper", self.value)
        if self.status == "bracket":
            if self.lower is None and self.upper is None:
                raise ValueError("bracket needs at least one side")
            if self.lower is not None and self.upper is not None:
                if self.lower > self.upper:
                    raise ValueError("empty bracket")

    @property
    def is_certified(self) -> bool:
        return self.status in ("exact", "bracket", "infinite")


def _fraction(q) -> Fraction:
    """q itself when it is a Fraction already, else Fraction(q)."""
    return q if type(q) is Fraction else Fraction(q)


def exact(q) -> ExtValue:
    return ExtValue("exact", value=_fraction(q))


def bracket(lo, hi, note: str = "") -> ExtValue:
    return ExtValue("bracket",
                    lower=None if lo is None else _fraction(lo),
                    upper=None if hi is None else _fraction(hi),
                    note=note)


def observational(q, note: str = "") -> ExtValue:
    return ExtValue("observational", value=_fraction(q), note=note)


def infinite(note: str = "") -> ExtValue:
    return ExtValue("infinite", note=note)


def _rational(text: str) -> Fraction:
    """text read by fractions.Fraction (`1/4`, `0.25`; not `1 / 4`): the one
    reader of lscsm arguments, CLI options and stored witness parameters."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"bad rational {text!r}: {e}") from None


def surely_lt(a: ExtValue, b: ExtValue) -> bool:
    """True only when the certificates force a < b."""
    if a.status == "infinite":
        return False
    if b.status == "infinite":
        return a.is_certified and a.upper is not None
    if not (a.is_certified and b.is_certified):
        return False
    return a.upper is not None and b.lower is not None and a.upper < b.lower


def surely_eq(a: ExtValue, b: ExtValue) -> bool:
    if a.status == "exact" and b.status == "exact":
        return a.value == b.value
    if a.status == "infinite" and b.status == "infinite":
        return True
    return False

