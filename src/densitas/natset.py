"""Structured subsets of the naturals with exact counting.

Five backends, each carrying enough structure for the density and norm
evaluators to work in closed form where the mathematics allows it:

- ``FiniteSet``: explicit sorted elements.
- ``HorizonSet``: a bit table on [0, H); membership beyond H is *unknown* and
  queries there raise ``QueryBeyondHorizon`` rather than guessing.
- ``PeriodicSet``: residues mod m from a threshold t on, with finitely many
  signed exceptions below t.
- ``APUnionSet``: finite unions of arithmetic-progression tails
  {a*j + h : j >= j0}, plus finite extras/removals. Term moduli keep an
  optional factored label (e.g. "9!") so reports can print them symbolically.
- ``DyadicBlockSet``: per block I_n = [2^n, 2^{n+1}) the member slice is the
  prefix [2^n, 2^n + round(f_n * 2^n)) for a declared fill rule f. Rounding is
  half-up. Fill rules must declare one of three structures (constant cycle,
  eventually periodic cycle, vanishing) so downstream evaluators never have to
  guess tail behaviour.

Each backend builds its lookup structures once, in ``__post_init__``, as
plain attributes outside the dataclass fields, so equality, hash, repr and
report payloads see the fields alone. Cost of the reads on [lo, hi):

- finite: ``member`` one frozenset lookup; ``count_range`` two bisections of
  the sorted elements; ``elements_in`` two bisections plus the output.
- horizon: ``member`` and ``count_range`` one shift or mask of the H-bit word;
  ``elements_in`` one shift and one pass over the range's bits.
- periodic: ``member`` one frozenset lookup of n mod m from the threshold
  on, the exception sets first below it. A periodic result of ``boolean_op``,
  ``complement``, ``normalize_periodic`` or ``transform`` is built by one
  private constructor, ``PeriodicSet._built``, which takes its rule,
  exceptions and threshold as they are and checks none of them: the kernel
  derived them from the same rule a check would read (sorted and distinct
  already: no sort). A result of the rule-table kernel (a dense pair op,
  every periodic ``complement``, a dense normalization) keeps its table and
  its residue count, taken in C; it builds the residue tuple only on the
  first read of ``residues`` (``==``, ``hash``, ``repr``, payloads,
  ``format_set``, ``replace``, ``transform``, the reads below) and keeps
  it, so a result read only through ``density`` or ``is_empty_surely``
  never pays O(m) for it. Every kernel result leaves its residue frozenset
  to the first ``member`` or ``rule_member`` read. The public constructor,
  and so every literal, validates the residues and exceptions and builds
  both at once. ``count_range`` q·|R| +
  bisect(R, r) at each end (n = q·m + r) plus two bisections per exception
  list, independent of hi - lo and of m, so factorial moduli cost no more
  than small ones; ``elements_in`` |R| progressions plus the output.
- ap-union (k terms): ``member`` from the threshold on one byte of a tail
  table at n mod l, l the lcm of the term moduli; the first such read builds
  it in O(l + Σ l/m). Below the threshold, and where l or Σ l/m passes
  ``_TAIL_MAX`` (2^20, so a table holds at most 1 MB; factorial moduli lie
  above it), one pass over (modulus, offset, first element) triples.
  ``count_range`` one ``_ap_count`` per cached intersection
  plus the exceptions inside the range; ``prefix_counts`` of many ascending
  points one pass over them per intersection; ``elements_in`` k
  progressions plus the output. The intersections are the CRT-pruned inclusion-exclusion over
  term subsets (k^2 for pairwise disjoint terms, up to 2^k), enumerated on
  the first ``count_range`` or ``density`` read and kept on the set; the
  geometric measure reads the same tuple. A term inside another term (its
  modulus a multiple of the other's, its offset congruent, its first element
  no smaller) or repeating an earlier one is left out of the enumeration.
- dyadic-block: ``member`` one ``bit_length`` and one index into the set's
  slice ends, each computed once, when a read first reaches its block.
  Blocks from ``_BLOCKS_CACHED`` (64) on are not kept, since the end of
  block j has j + 1 bits: there each read computes one fill value and an
  integer slice length, O(j) bit work. ``count_range`` and ``elements_in``
  read one slice end per block the range meets, plus the exceptions inside
  the range.

The AP-union tail table, the block slice ends, and the residue tuple and
frozenset of a kernel-built periodic set are read structures too, built by
the first read that needs them rather than in ``__post_init__``; the first
two are bounded by those two module constants.

Periodic set algebra lifts each operand's residues to l = lcm(m, m') as a
rule mod l and combines the two rules by one set operation. A rule that
lifts to fewer than l / 4 residues is a Python set, at one insertion per
lifted residue. A denser one is a rule table, l bytes with table[r] = 1 iff
r ∈ R: a table mod m lifts to mod l as l / m copies of itself (one bytes
repetition), two lifted tables combine as byte lanes of one integer each by
one bitwise op, and the result keeps the table, reading its residues back
in C when they are first read. ``normalize_periodic`` writes its AP terms
into a table by one strided slice per term, the builder the AP-union tail
table uses, and drops each term's unstarted positions a progression at a
time; ``complement`` flips the table by one ``translate``. So a
pair op or a normalization costs O(Σ |R|·l/m), the lifted residue count,
plus the exceptions, and a complement O(m). ``transform`` of a periodic
set maps the residue tuple in C: a dilation multiplies each residue, a
shift rotates the tuple at the one residue, found by bisection, that wraps
past the modulus. A literal's table is built on its first table op, after l (or m) has passed
``config.modulus_budget``; a kernel result keeps the table it was built
from. ``per m=1000! R={0}`` never builds one.

Five rules live here once, for every module that needs them:

- ``_signed_exceptions(a, lo, hi)``: the AP-union or block exceptions that
  change membership, an extra off the rule as +1 and a removal on it as -1;
  ``count_range``, the block tail weights of the lscsm evaluators and the
  geometric measure all read them.
- ``DyadicBlockSet.slices(lo, hi)``: the walk over the rule's member runs;
  ``count_range`` and ``elements_in`` use it.
- ``period(budget)`` of an eventually periodic set: a ``PeriodicSet``'s
  modulus, or an ``APUnionSet``'s lcm of term moduli (None above the budget).
- ``_bisect(ok, lo, hi)``: the least n in (lo, hi] passing a monotone
  test, for ``least_member``, the tail cuts of ``limits`` and the witness scale.
- the class start, the least x >= lo with x ≡ r (mod m): ``lo + (r - lo) % m``.

The one set-literal grammar lives here (``parse_set``/``format_set``); the
CLI parses and prints through it:

    fin{1,2,3}   fin{0..9}   fin{}
    per m=6 R={1,3} [t=2] [add={..}] [rm={..}]  (exceptions lie below t)
    ap a=720 h=1 [j0=1] | ap a=6! h=3           (factorial moduli N!, N <= 1000)
    ap a=2*6! h=3              (k*...*N!, the label a dilation gives: 1440)
    blocks f(n)=2^-3 | =1/4 | =cycle{1/2,1/4}@2 | =1/n | =2^-n   (2^-k: k <= 14000)
    horizon H=16 bits=ff00     (hex integer, bit i = member i: {8..15})

Horizon bits at or beyond H, reversed ranges, sizes above 2^20 (naturals in
one brace list, H, a cycle threshold), naturals of more than 4,300 digits, a
product modulus without a factorial or of more than 4,300 digits and 2^-k
with k > 14000 are parse errors. A modulus with a factorial keeps its text
as the term's label, so ``parse_set(format_set(a)) == a`` holds for dilated
factorial terms too.

Whitespace is any run of ``str.isspace`` characters. It may come before
every token (a keyword, a key such as ``m=`` or ``f(n)=``, a natural, one of
``{ } , .. | * ! / @``, ``2^-``, ``cycle``, hex bits) and at the end, never
inside one: ``m =6`` is an error. Naturals are decimal digits of any script,
so ``fin{١٢}`` is {12}. ``parse_set`` reads a clause by its row of
``_PRODUCTIONS``: each field is a key and its value, read by one
precompiled match that folds in the leading whitespace. The plain naturals
that open a brace list are read by one match of the list's run of digits,
whitespace and commas and ``int()`` of each comma-separated piece; from the
first item that is not one (a ``..`` range, a malformed item, the end of
the run) the list is read item by item, one match per item. Every error is
found on the item-by-item or field-by-field path, with its caret.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from itertools import accumulate, compress
from operator import add, index, sub
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .config import Config, DEFAULT_CONFIG
from .exceptions import (
    IncompatibleBackends,
    ModulusBudgetExceeded,
    NoValidCut,
    ParseError,
    QueryBeyondHorizon,
    UnsupportedBackend,
)

__all__ = [
    "NatSet",
    "FiniteSet",
    "HorizonSet",
    "PeriodicSet",
    "APTerm",
    "APUnionSet",
    "FillRule",
    "DyadicBlockSet",
    "boolean_op",
    "transform",
    "normalize_periodic",
    "complement",
    "drop_below",
    "parse_set",
    "format_set",
    "round_half_up",
]


def round_half_up(x: Fraction) -> int:
    """Nearest integer to x, halves rounded up. Used for block slice lengths."""
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def _sorted_unique(xs: Iterable[int]) -> tuple[tuple[int, ...], frozenset]:
    """The naturals xs as a sorted tuple and as a frozenset for member
    reads, both from one hash set. An element is taken as Python indexes
    with it (``operator.index``): a bool counts as 0 or 1, and a float,
    Fraction or str is refused rather than truncated."""
    integers = map(index, xs)
    try:
        members = frozenset(integers)
    except TypeError as e:
        raise ValueError(f"elements must be naturals: {e}") from None
    out = tuple(sorted(members))
    if out and out[0] < 0:
        raise ValueError("elements must be naturals")
    return out, members


def _shown(n: int) -> str:
    """n in decimal for an error message, or its size once it is long: past
    4,300 digits Python refuses to print an integer, and the message would
    fail in place of the error it reports."""
    return str(n) if n.bit_length() <= 1024 else f"[{n.bit_length()} bits]"


def _count_between(xs: tuple[int, ...], lo: int, hi: int) -> int:
    """|xs ∩ [lo, hi)| for a sorted tuple xs."""
    return max(0, bisect_left(xs, hi) - bisect_left(xs, lo))


def _within(xs: tuple[int, ...], lo: int, hi: int) -> tuple[int, ...]:
    """The part of a sorted tuple xs inside [lo, hi)."""
    return xs[bisect_left(xs, lo):bisect_left(xs, hi)]


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
# swaps the 0 and 1 bytes of a rule table: its complement
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _bit_table(word: int, width: int) -> bytes:
    """table[i] = bit i of word (0 or 1) for i < width, in one C-level pass;
    the set bits ascending are compress(range(width), table)."""
    return bin(word)[:1:-1].encode().translate(_BIT_VALUES).ljust(width, b"\x00")


class NatSet:
    """Common interface; concrete backends subclass this."""

    kind: str = "?"

    def member(self, n: int) -> bool:
        raise NotImplementedError

    def count_range(self, lo: int, hi: int) -> int:
        """Exact |A ∩ [lo, hi)|."""
        raise NotImplementedError

    def elements_in(self, lo: int, hi: int) -> list[int]:
        """Sorted elements of A ∩ [lo, hi). Output-sensitive on structured backends."""
        return [n for n in range(max(lo, 0), hi) if self.member(n)]

    def prefix_counts(self, points: Sequence[int]) -> list[int]:
        """|A ∩ [0, m)| for each m of an ascending sequence."""
        return [self.count_range(0, m) for m in points]

    def is_empty_surely(self) -> bool:
        return False


# ---------------------------------------------------------------------------
# finite


@dataclass(frozen=True)
class FiniteSet(NatSet):
    elements: tuple[int, ...] = ()
    kind = "finite"

    def __post_init__(self):
        elements, members = _sorted_unique(self.elements)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_members", members)

    def member(self, n: int) -> bool:
        return n in self._members

    def count_range(self, lo: int, hi: int) -> int:
        return _count_between(self.elements, lo, hi)

    def elements_in(self, lo: int, hi: int) -> list[int]:
        return list(_within(self.elements, lo, hi))

    def is_empty_surely(self) -> bool:
        return not self.elements


EMPTY = FiniteSet(())


# ---------------------------------------------------------------------------
# horizon bit table


@dataclass(frozen=True)
class HorizonSet(NatSet):
    horizon: int
    bits: bytes
    kind = "horizon"

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        need = (self.horizon + 7) // 8
        if len(self.bits) < need:
            object.__setattr__(self, "bits", self.bits + b"\x00" * (need - len(self.bits)))
        elif len(self.bits) > need:
            object.__setattr__(self, "bits", self.bits[:need])
        # cache the bit table as one big int; popcounts become O(1)-ish. Bits
        # at or past the horizon are dropped, so equal sets have equal bytes
        word = int.from_bytes(self.bits, "little")
        if word >> self.horizon:
            word &= (1 << self.horizon) - 1
            object.__setattr__(self, "bits", word.to_bytes(need, "little"))
        object.__setattr__(self, "_word", word)

    @classmethod
    def from_members(cls, horizon: int, members: Iterable[int]) -> "HorizonSet":
        word = 0
        for m in members:
            if 0 <= m < horizon:
                word |= 1 << m
            else:
                raise QueryBeyondHorizon(f"member {_shown(m)} outside horizon {horizon}")
        return cls._from_word(horizon, word)

    @classmethod
    def _from_word(cls, horizon: int, word: int) -> "HorizonSet":
        """The set with member i where bit i of word is set; the word is a
        natural below 2^horizon, as the word of every set of this horizon
        is, and is kept as it is."""
        s = object.__new__(cls)
        object.__setattr__(s, "horizon", horizon)
        object.__setattr__(s, "bits", word.to_bytes((horizon + 7) // 8, "little"))
        object.__setattr__(s, "_word", word)
        return s

    def member(self, n: int) -> bool:
        if n < 0:
            return False
        if n >= self.horizon:
            raise QueryBeyondHorizon(f"membership of {_shown(n)} unknown beyond horizon "
                                     f"{self.horizon}")
        return bool((self._word >> n) & 1)

    def count_range(self, lo: int, hi: int) -> int:
        if hi > self.horizon:
            raise QueryBeyondHorizon(f"count beyond horizon {self.horizon}")
        lo = max(lo, 0)
        if hi <= lo:
            return 0
        mask = ((1 << (hi - lo)) - 1) << lo
        return (self._word & mask).bit_count()

    def elements_in(self, lo: int, hi: int) -> list[int]:
        if hi > self.horizon:
            raise QueryBeyondHorizon(f"elements beyond horizon {self.horizon}")
        lo = max(lo, 0)
        if hi <= lo:
            return []
        window = (self._word >> lo) & ((1 << (hi - lo)) - 1)
        return list(compress(range(lo, hi), _bit_table(window, hi - lo)))


# ---------------------------------------------------------------------------
# periodic


def _ap_count(m: int, r: int, lo: int, hi: int) -> int:
    """#{x : x ≡ r (mod m), x >= r, lo <= x < hi} for 0 <= r < m."""
    lo = max(lo, r)
    if hi <= lo:
        return 0
    # smallest x >= lo with x ≡ r: r + m*ceil((lo-r)/m)
    j_lo = -((lo - r) // -m)
    j_hi = -((hi - r) // -m)  # count of j with r + m j < hi is ceil((hi-r)/m)
    return max(0, j_hi - j_lo)


@dataclass(frozen=True)
class PeriodicSet(NatSet):
    """n >= threshold: n ∈ A iff n mod modulus ∈ residues; below threshold the
    rule applies too, corrected by the signed exceptions `added`/`removed`."""

    modulus: int
    residues: tuple[int, ...]
    threshold: int = 0
    added: tuple[int, ...] = ()
    removed: tuple[int, ...] = ()
    kind = "periodic"

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        rs, rset = _sorted_unique(self.residues)
        if rs and rs[-1] >= self.modulus:
            raise ValueError("residues must lie in [0, modulus)")
        added, added_set = _sorted_unique(self.added)
        removed, removed_set = _sorted_unique(self.removed)
        for x in added:
            if x >= self.threshold or x % self.modulus in rset:
                raise ValueError(f"added exception {x} must be < threshold and not a "
                                 f"rule member")
        for x in removed:
            if x >= self.threshold or x % self.modulus not in rset:
                raise ValueError(f"removed exception {x} must be < threshold and a "
                                 f"rule member")
        object.__setattr__(self, "residues", rs)
        self._keep(added, removed, len(rs), rset, added_set, removed_set, None)

    @classmethod
    def _built(cls, modulus: int, rule: tuple[int, ...] | bytes, added: tuple[int, ...],
               removed: tuple[int, ...], threshold: Optional[int] = None,
               count: Optional[int] = None) -> "PeriodicSet":
        """A result of the set algebra, taken as it is and checked in no
        part: the rule is a sorted tuple of distinct residues below the
        modulus, or a rule table of modulus bytes, which the result keeps;
        the exceptions are sorted, distinct and off (added) or on (removed)
        the rule; the threshold lies past them, by default just past the
        largest; ``count``, when given, is the rule's residue count, which
        is otherwise counted from the rule. A table result leaves its
        residue tuple to the first read of ``residues``
        (``_TableResidues``), and every result its residue index to the
        first ``member`` or ``rule_member`` read."""
        s = object.__new__(cls)
        object.__setattr__(s, "modulus", modulus)
        table = rule if type(rule) is bytes else None
        if table is None:
            object.__setattr__(s, "residues", rule)
        if threshold is None:
            threshold = max(added[-1:] + removed[-1:], default=-1) + 1
        object.__setattr__(s, "threshold", threshold)
        if count is None:
            count = len(rule) if table is None else table.count(1)
        s._keep(added, removed, count, None, frozenset(added), frozenset(removed), table)
        return s

    def _keep(self, added, removed, count, rset, added_set, removed_set, table) -> None:
        object.__setattr__(self, "added", added)
        object.__setattr__(self, "removed", removed)
        # |R|, so the density and the emptiness test never build the tuple
        object.__setattr__(self, "_residue_count", count)
        # the residues as a frozenset for member reads; None on a kernel
        # result until its first read builds it (an empty rule's index is
        # the empty frozenset, so the reads test `is None`)
        object.__setattr__(self, "_residue_set", rset)
        object.__setattr__(self, "_added_set", added_set)
        object.__setattr__(self, "_removed_set", removed_set)
        # None until the first read of `_rule_table` fills it (see there); a
        # kernel result keeps the table it was built from
        object.__setattr__(self, "_table_cache", table)

    def _residue_index(self) -> frozenset:
        """The residue frozenset of a kernel result, built on its first read."""
        rset = frozenset(self.residues)
        object.__setattr__(self, "_residue_set", rset)
        return rset

    @property
    def _rule_table(self) -> bytes:
        """The rule as m bytes, table[r] = 1 iff r ∈ R.

        Built on first use, never in ``__post_init__``: ``per m=1000! R={0}``
        is a legal literal whose table no memory holds, so every caller checks
        the modulus against ``config.modulus_budget`` first.
        """
        if self._table_cache is None:
            table = bytearray(self.modulus)
            for r in self.residues:
                table[r] = 1
            object.__setattr__(self, "_table_cache", bytes(table))
        return self._table_cache

    def rule_member(self, n: int) -> bool:
        rset = self._residue_set
        if rset is None:
            table = self._table_cache
            if table is not None:
                return table[n % self.modulus] == 1
            rset = self._residue_index()
        return n % self.modulus in rset

    def member(self, n: int) -> bool:
        rset = self._residue_set
        if rset is None:
            # a kept rule table answers without the residue tuple and index,
            # which for a large modulus cost far more than the read
            table = self._table_cache
            if table is not None:
                return (n >= 0 and n not in self._removed_set
                        and (n in self._added_set or table[n % self.modulus] == 1))
            rset = self._residue_index()
        if n >= self.threshold:  # every exception lies below the threshold
            return n % self.modulus in rset
        if n < 0 or n in self._removed_set:
            return False
        return n in self._added_set or n % self.modulus in rset

    def _rule_count_below(self, n: int) -> int:
        """|{x in [0, n) : x mod m in R}|: q whole periods, then the residues
        below r, where n = q·m + r."""
        q, r = divmod(n, self.modulus)
        return q * self._residue_count + bisect_left(self.residues, r)

    def count_range(self, lo: int, hi: int) -> int:
        lo = max(lo, 0)
        if hi <= lo:
            return 0
        return (self._rule_count_below(hi) - self._rule_count_below(lo)
                + _count_between(self.added, lo, hi) - _count_between(self.removed, lo, hi))

    def elements_in(self, lo: int, hi: int) -> list[int]:
        out = []
        start = max(lo, 0)
        for r in self.residues:
            out.extend(range(start + (r - start) % self.modulus, hi, self.modulus))
        out = set(out)
        out.update(x for x in self.added if lo <= x < hi)
        out.difference_update(self.removed)
        return sorted(out)

    def density(self) -> Fraction:
        return Fraction(self._residue_count, self.modulus)

    def period(self, budget: int) -> Optional[int]:
        """A period of the rule from the threshold on: the modulus."""
        return self.modulus

    def is_empty_surely(self) -> bool:
        return not self._residue_count and not self.added


class _TableResidues:
    """``PeriodicSet.residues`` of a result that keeps its rule table: the
    tuple is read back from the table on its first read and stored on the
    instance, which then shadows this non-data descriptor. The store goes
    through ``object.__setattr__``, not the instance ``__dict__`` as
    ``functools.cached_property`` writes it, so instances keep the shared
    attribute layout that specialized attribute reads rely on."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        rs = tuple(compress(range(obj.modulus), obj._table_cache))
        object.__setattr__(obj, "residues", rs)
        return rs


PeriodicSet.residues = _TableResidues()

OMEGA = PeriodicSet(1, (0,))
EVENS = PeriodicSet(2, (0,))
ODDS = PeriodicSet(2, (1,))


# ---------------------------------------------------------------------------
# AP unions


@dataclass(frozen=True)
class APTerm:
    """{modulus * j + offset : j >= start}. Canonical form keeps offset < modulus."""

    modulus: int
    offset: int
    start: int = 0
    label: Optional[str] = None

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("term modulus must be >= 1")
        if self.offset < 0 or self.start < 0:
            raise ValueError("offset and start must be naturals")
        if self.offset >= self.modulus:
            shift, off = divmod(self.offset, self.modulus)
            object.__setattr__(self, "offset", off)
            object.__setattr__(self, "start", self.start + shift)

    @property
    def min_element(self) -> int:
        return self.modulus * self.start + self.offset

    def modulus_text(self) -> str:
        return self.label if self.label else str(self.modulus)


def factorial_label(n: int) -> str:
    return f"{n}!"


def _covers(u: APTerm, t: APTerm) -> bool:
    """Whether every member of t is a member of u (offsets are canonical)."""
    return (t.modulus % u.modulus == 0 and t.offset % u.modulus == u.offset
            and t.min_element >= u.min_element)


def _crt_merge(m1: int, c1: int, m2: int, c2: int) -> Optional[tuple[int, int]]:
    """Solve x ≡ c1 (m1), x ≡ c2 (m2). Returns (lcm, c) or None if empty."""
    g = math.gcd(m1, m2)
    if (c1 - c2) % g:
        return None
    l = m1 // g * m2
    # c = c1 + m1 * t with t ≡ (c2-c1)/g * inv(m1/g) (mod m2/g)
    m2g = m2 // g
    t = ((c2 - c1) // g * pow(m1 // g, -1, m2g)) % m2g if m2g > 1 else 0
    return l, (c1 + m1 * t) % l


def _by_modulus(terms: Iterable[APTerm]) -> dict[int, dict[int, list[int]]]:
    """The terms grouped as modulus -> offset -> starts, in term order."""
    groups: dict[int, dict[int, list[int]]] = {}
    for t in terms:
        groups.setdefault(t.modulus, {}).setdefault(t.offset, []).append(t.start)
    return groups


def _classes_meet(m1: int, r1, m2: int, r2) -> bool:
    """Whether a class x ≡ c1 (m1), c1 in the set view r1, meets a class
    x ≡ c2 (m2), c2 in r2: by the CRT, exactly when c1 ≡ c2 mod
    gcd(m1, m2). One gcd per pair of moduli; the side whose modulus is the
    gcd needs no reduction."""
    g = math.gcd(m1, m2)
    if g == m2:
        m1, r1, m2, r2 = m2, r2, m1, r1
    if g != m1:
        r1 = set(map(g.__rmod__, r1))
    return not r1.isdisjoint(map(g.__rmod__, r2))


def _pairwise_disjoint(terms: Iterable[APTerm]) -> bool:
    """Whether no two of the terms share a member. Every term is infinite,
    so two terms are disjoint exactly when their classes are."""
    groups = list(_by_modulus(terms).items())
    for i, (m1, r1) in enumerate(groups):
        if any(len(starts) > 1 for starts in r1.values()) or any(
                _classes_meet(m1, r1.keys(), m2, r2.keys()) for m2, r2 in groups[i + 1:]):
            return False
    return True


def _set_exceptions(a) -> None:
    """Sort the finite extras/removals of an AP-union or block set and cache
    them as frozensets for member reads."""
    (extras, extra_set), (removals, removal_set) = \
        _sorted_unique(a.extras), _sorted_unique(a.removals)
    object.__setattr__(a, "extras", extras)
    object.__setattr__(a, "removals", removals)
    object.__setattr__(a, "_extra_set", extra_set)
    object.__setattr__(a, "_removal_set", removal_set)
    if a._extra_set & a._removal_set:
        raise ValueError("extras and removals must be disjoint")


def _signed_exceptions(a, lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """The exceptions of an AP-union or block set inside [lo, hi) that change
    membership: (x, +1) for an extra off the rule, (x, -1) for a removal on it."""
    for x in _within(a.extras, lo, hi):
        if not a.rule_member(x):
            yield x, 1
    for x in _within(a.removals, lo, hi):
        if a.rule_member(x):
            yield x, -1


def _exception_count(a, lo: int, hi: int) -> int:
    """|A ∩ [lo, hi)| minus the rule's count there."""
    return sum(sign for _, sign in _signed_exceptions(a, lo, hi))


@dataclass(frozen=True)
class APUnionSet(NatSet):
    """((union of terms) ∪ extras) ∖ removals, extras/removals finite."""

    terms: tuple[APTerm, ...]
    extras: tuple[int, ...] = ()
    removals: tuple[int, ...] = ()
    kind = "ap-union"

    def __post_init__(self):
        _set_exceptions(self)
        object.__setattr__(self, "_term_rules",
                           tuple((t.modulus, t.offset, t.min_element) for t in self.terms))
        # the least t such that from t on every term has started and no extra
        # or removal remains: past it the set is periodic modulo the terms' lcm
        object.__setattr__(self, "threshold", max(
            [mn for _, _, mn in self._term_rules]
            + [xs[-1] + 1 for xs in (self.extras, self.removals) if xs] + [0]))
        # None until the first read of `_intersections` or `_disjoint`, and
        # the first `member` read past the threshold, fill them. Declared
        # here so every instance has the same attributes: a later `__dict__`
        # write, as functools.cached_property makes, slowed every `member` read
        object.__setattr__(self, "_intersection_cache", None)
        object.__setattr__(self, "_tail_cache", None)
        object.__setattr__(self, "_disjoint_cache", None)

    def rule_member(self, n: int) -> bool:
        for m, h, mn in self._term_rules:
            if n >= mn and n % m == h:
                return True
        return False

    def member(self, n: int) -> bool:
        if n >= self.threshold:
            table = self._tail_cache
            if table is None:
                table = self._tail_table()
            if table:
                return table[n % len(table)] == 1
        if n < 0 or n in self._removal_set:
            return False
        return n in self._extra_set or self.rule_member(n)

    def _tail_table(self) -> bytes:
        """The rule past the threshold as a byte table over one period l, the
        lcm of the term moduli: table[r] is 1 iff r is a member residue mod l.

        Built by the first ``member`` read past the threshold, one strided
        write per term, O(l + Σ l/m). Where l or the lifted residue count
        Σ l/m passes ``_TAIL_MAX`` (factorial moduli, for one) no table is
        built, the empty one is kept, and ``member`` passes over the terms.
        """
        l = _lcm_within((t.modulus for t in self.terms), _TAIL_MAX)
        table = b""
        if l is not None and sum(l // t.modulus for t in self.terms) <= _TAIL_MAX:
            table = _term_table(self.terms, l)
        object.__setattr__(self, "_tail_cache", table)
        return table

    def count_range(self, lo: int, hi: int) -> int:
        lo = max(lo, 0)
        if hi <= lo:
            return 0
        total = sum(sign * _ap_count(M, c, max(lo, mn), hi)
                    for M, c, mn, sign in self._intersections)
        return total + _exception_count(self, lo, hi)

    def prefix_counts(self, points: Sequence[int]) -> list[int]:
        """|A ∩ [0, m)| for each m of an ascending sequence, in one pass over
        the points per inclusion-exclusion entry (``count_range`` walks
        every entry for each point) and one over the exceptions."""
        totals = [0] * len(points)
        for M, c, mn, sign in self._intersections:
            first = max(mn, c)
            first += (c - first) % M  # the entry's least member
            i = bisect_right(points, first)
            counts = [(m - first - 1) // M + 1 for m in points[i:]]
            totals[i:] = map(add if sign > 0 else sub, totals[i:], counts)
        if points and (self.extras or self.removals):
            signed = sorted(_signed_exceptions(self, 0, points[-1]))
            at = [x for x, _ in signed]
            run = list(accumulate((sign for _, sign in signed), initial=0))
            totals = [t + run[bisect_left(at, m)] for t, m in zip(totals, points)]
        return totals

    def elements_in(self, lo: int, hi: int) -> list[int]:
        out = set()
        for t in self.terms:
            first = max(lo, t.min_element)
            out.update(range(first + (t.offset - first) % t.modulus, hi, t.modulus))
        out.update(x for x in self.extras if lo <= x < hi)
        out.difference_update(self.removals)
        return sorted(out)

    def density(self) -> Fraction:
        """Natural density of the union (limit exists; finite parts ignored):
        one signed entry count per distinct inclusion-exclusion modulus."""
        counts: dict[int, int] = {}
        for M, _, _, sign in self._intersections:
            counts[M] = counts.get(M, 0) + sign
        return sum((Fraction(c, M) for M, c in counts.items()), Fraction(0))

    def period(self, budget: int) -> Optional[int]:
        """A period of the rule from the threshold on: the lcm of the term
        moduli, or None once it exceeds the budget."""
        return _lcm_within((t.modulus for t in self.terms), budget)

    def is_empty_surely(self) -> bool:
        return not self.terms and not self.extras

    @property
    def _disjoint(self) -> bool:
        """Whether no two terms share a member, tested on the first read."""
        if self._disjoint_cache is None:
            object.__setattr__(self, "_disjoint_cache", _pairwise_disjoint(self.terms))
        return self._disjoint_cache

    @property
    def _intersections(self) -> tuple[tuple[int, int, int, int], ...]:
        """Inclusion-exclusion over the nonempty CRT-compatible term subsets,
        as (M, c, min_x, sign): the intersection is the AP x ≡ c (mod M)
        restricted to x >= min_x, counted with the given sign.

        Built on the first read that needs it, not in ``__post_init__``: every
        union ``boolean_op`` builds would pay for it otherwise. A term that
        lies inside another term, or repeats an earlier one, adds no members
        and is left out. A depth-first walk drops a branch as soon as its
        intersection is empty, so pairwise-disjoint terms give O(k^2) entries
        instead of 2^k. Pairwise-disjoint terms, which a modulus-grouped
        test finds in O(G * k) for G distinct moduli, are exactly the entries
        that walk emits, one per term, so it is skipped for them.
        """
        if self._intersection_cache is not None:
            return self._intersection_cache
        if self._disjoint:
            out = tuple((t.modulus, t.offset, t.min_element, 1) for t in self.terms)
            object.__setattr__(self, "_intersection_cache", out)
            return out
        terms, out = [t for i, t in enumerate(self.terms) if not any(
            _covers(u, t) and (j < i or not _covers(t, u))
            for j, u in enumerate(self.terms) if j != i)], []

        def rec(idx: int, M: int, c: int, mn: int, sign: int):
            for i in range(idx, len(terms)):
                t = terms[i]
                merged = _crt_merge(M, c, t.modulus, t.offset)
                if merged is None:
                    continue
                M2, c2 = merged
                mn2 = max(mn, t.min_element)
                out.append((M2, c2, mn2, sign))
                rec(i + 1, M2, c2, mn2, -sign)

        rec(0, 1, 0, 0, 1)
        object.__setattr__(self, "_intersection_cache", tuple(out))
        return self._intersection_cache


# ---------------------------------------------------------------------------
# dyadic blocks


@dataclass(frozen=True)
class FillRule:
    """Block fill rule n -> f_n ∈ [0,1] ∩ Q with declared tail structure.

    structure "cycle": f_n = cycle[(n - threshold) % len(cycle)] for
    n >= threshold, with explicit head values for n < threshold.
    structure "vanishing": f is nonincreasing to 0 beyond the threshold
    (declared by the rule author; spot-checked at construction).
    """

    structure: str  # "cycle" | "vanishing"
    cycle: tuple[Fraction, ...] = ()
    threshold: int = 0
    head: tuple[Fraction, ...] = ()
    func_label: str = ""
    slice_growth: str = ""  # "bounded" | "unbounded" (declared; required for vanishing)
    _func: Optional[Callable[[int], Fraction]] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.structure not in ("cycle", "vanishing"):
            raise ValueError("fill structure must be 'cycle' or 'vanishing'")
        for v in tuple(self.cycle) + tuple(self.head):
            if not (0 <= v <= 1):
                raise ValueError("fill values must lie in [0, 1]")
        if self.structure == "cycle":
            if not self.cycle:
                raise ValueError("cycle structure needs at least one value")
            derived = "unbounded" if any(v > 0 for v in self.cycle) else "bounded"
            object.__setattr__(self, "slice_growth", derived)
        if self.structure == "vanishing":
            if self._func is None:
                raise ValueError("vanishing rule needs a callable")
            if self.slice_growth not in ("bounded", "unbounded"):
                raise ValueError("vanishing rule must declare slice_growth bounded/unbounded")
            last = None
            lens = []
            for n in range(max(self.threshold, 1), max(self.threshold, 1) + 48):
                v = self._func(n)
                if not (0 <= v <= 1):
                    raise ValueError("fill values must lie in [0, 1]")
                if last is not None and v > last:
                    raise ValueError("vanishing rule must be nonincreasing beyond threshold")
                last = v
                lens.append(round_half_up(v * (1 << n)))
            # spot-check the declared slice growth against a probe window
            growing = lens[-1] > 4 * max(lens[0], 1)
            if self.slice_growth == "bounded" and growing:
                raise ValueError("slice lengths grow but rule declares them bounded")
            if self.slice_growth == "unbounded" and lens[-1] <= lens[0]:
                raise ValueError("slice lengths do not grow but rule declares them unbounded")

    @classmethod
    def constant(cls, c: Fraction) -> "FillRule":
        c = Fraction(c)
        return cls(structure="cycle", cycle=(c,), threshold=0, func_label=str(c))

    @classmethod
    def cycled(cls, values: Iterable[Fraction], threshold: int = 0,
               head: Iterable[Fraction] = ()) -> "FillRule":
        vals = tuple(Fraction(v) for v in values)
        hd = tuple(Fraction(v) for v in head)
        if len(hd) < threshold:
            hd = hd + (Fraction(0),) * (threshold - len(hd))
        label = "cycle{" + ",".join(str(v) for v in vals) + "}" + (f"@{threshold}" if threshold else "")
        return cls(structure="cycle", cycle=vals, threshold=threshold, head=hd[:threshold],
                   func_label=label)

    @classmethod
    def vanishing(cls, func: Callable[[int], Fraction], label: str, threshold: int = 1,
                  slice_growth: str = "unbounded") -> "FillRule":
        return cls(structure="vanishing", threshold=threshold, func_label=label,
                   slice_growth=slice_growth, _func=func)

    def _key(self) -> tuple:
        # a cycle rule is its values, a vanishing rule its label: comparing
        # func_label would set blocks f(n)=1/2 apart from f(n)=cycle{1/2}
        if self.structure == "cycle":
            return ("cycle", self.cycle, self.threshold, self.head)
        return ("vanishing", self.func_label, self.threshold, self.slice_growth)

    def __eq__(self, other):
        return isinstance(other, FillRule) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def value(self, n: int) -> Fraction:
        if n < self.threshold:
            return self.head[n] if n < len(self.head) else Fraction(0)
        if self.structure == "cycle":
            return self.cycle[(n - self.threshold) % len(self.cycle)]
        return self._func(n)


@dataclass(frozen=True)
class DyadicBlockSet(NatSet):
    """Member slice in block I_n = [2^n, 2^{n+1}) is [2^n, 2^n + round(f_n 2^n)).

    0 belongs to no block, hence never to the rule part. Finite extras/removals
    let boolean ops against finite sets stay representable.
    """

    fill: FillRule
    extras: tuple[int, ...] = ()
    removals: tuple[int, ...] = ()
    kind = "dyadic-block"

    def __post_init__(self):
        _set_exceptions(self)
        # _ends[b] = _slice_end(b), filled in order by the reads up to
        # _BLOCKS_CACHED; _ends[0] = 0, since 0 lies in no block
        object.__setattr__(self, "_ends", [0])

    def slice_len(self, n: int) -> int:
        """round_half_up(f_n · 2^n), the length of block n's member slice."""
        return self._slice_end(n + 1) - (1 << n)

    def _slice_end(self, b: int) -> int:
        """End of the member run among the naturals of bit length b, which
        make up block b - 1, and 0 for b = 0. The ends of blocks below
        _BLOCKS_CACHED are computed once, in order, and kept."""
        ends = self._ends
        if b < len(ends):
            return ends[b]
        if b > _BLOCKS_CACHED:
            return self._block_end(b - 1)
        ends.extend(map(self._block_end, range(len(ends) - 1, b)))
        return ends[b]

    def _block_end(self, j: int) -> int:
        """2^j + round_half_up(f_j · 2^j), in integers: with f_j = p/q the
        slice length is floor((p·2^(j+1) + q) / 2q)."""
        f = self.fill.value(j)
        return (1 << j) + ((f.numerator << (j + 1)) + f.denominator) // (2 * f.denominator)

    def slices_unbounded(self) -> bool:
        """Whether member-run lengths grow without bound (declared structure)."""
        return self.fill.slice_growth == "unbounded"

    def rule_member(self, n: int) -> bool:
        return 0 <= n < self._slice_end(n.bit_length())

    def member(self, n: int) -> bool:
        if n < 0 or n in self._removal_set:
            return False
        if n in self._extra_set:
            return True
        # the cached case of _slice_end inline: the call would cost about a
        # third of the read
        b, ends = n.bit_length(), self._ends
        return n < (ends[b] if b < len(ends) else self._slice_end(b))

    def slices(self, lo: int, hi: int) -> Iterator[tuple[int, int]]:
        """The rule's member runs inside [lo, hi) as ascending nonempty
        half-open (start, end) pairs, one per block; exceptions not applied."""
        if hi <= 1:
            return
        for b in range(max(lo, 1).bit_length(), (hi - 1).bit_length() + 1):
            s = max(1 << (b - 1), lo)
            e = min(self._slice_end(b), hi)
            if s < e:
                yield s, e

    def count_range(self, lo: int, hi: int) -> int:
        lo = max(lo, 0)
        if hi <= lo:
            return 0
        return sum(e - s for s, e in self.slices(lo, hi)) + _exception_count(self, lo, hi)

    def elements_in(self, lo: int, hi: int) -> list[int]:
        out = set()
        for s, e in self.slices(lo, hi):
            out.update(range(s, e))
        out.update(x for x in self.extras if lo <= x < hi)
        out.difference_update(self.removals)
        return sorted(out)


def finite_part(a: NatSet) -> Optional[FiniteSet]:
    """The set as a FiniteSet when its rule part is empty, else None.

    The one finite-set rule of the measures and norms: a periodic set without
    residues, an AP union without terms and a block set whose cycle is all
    zeros hold only their finitely many listed (or head) members.
    """
    if isinstance(a, FiniteSet):
        return a
    if isinstance(a, PeriodicSet) and not a._residue_count:
        return FiniteSet(a.added)
    if isinstance(a, APUnionSet) and not a.terms:
        return FiniteSet(tuple(x for x in a.extras if x not in a.removals))
    if isinstance(a, DyadicBlockSet) and a.fill.structure == "cycle" \
            and not any(a.fill.cycle):
        # read up to the last nonempty head block only: a zero head can be
        # 2^20 blocks long, and each block's slice costs time linear in j
        top = max([x.bit_length() for x in a.extras]
                  + [j + 1 for j, v in enumerate(a.fill.head) if v], default=0)
        return FiniteSet(tuple(a.elements_in(0, 1 << (top + 1))))
    return None


def least_member(a: NatSet) -> Optional[int]:
    """The least member of A, or None when A is empty, decided exactly: the
    containment test B ⊆ C of monotone sequences and limit candidates is
    `least_member(B ∖ C) is None`.

    Past the finite and horizon cases, a set has a rule part with
    infinitely many members (residues, progression terms, a cycle fill with
    a positive value) and finitely many exceptions, so it has a member, and
    the least one is bisected by `count_range`. A block set with a
    vanishing fill is the exception: its emptiness is not decidable, so it
    raises UnsupportedBackend unless a member lies below 2^64.
    """
    if a.is_empty_surely():
        return None
    fin = finite_part(a)
    if fin is not None:
        return fin.elements[0] if fin.elements else None
    if isinstance(a, HorizonSet):
        return (a._word & -a._word).bit_length() - 1 if a._word else None
    hi = 1
    while not a.count_range(0, hi):
        if hi >> 64 and isinstance(a, DyadicBlockSet) and a.fill.structure == "vanishing":
            raise UnsupportedBackend(
                "emptiness of a block set with a vanishing fill is not decidable")
        hi <<= 1
    # |A ∩ [0, hi/2)| = 0 < |A ∩ [0, hi)|
    return _bisect(lambda n: a.count_range(0, n) > 0, hi >> 1, hi) - 1


def _bisect(ok: Callable[[int], bool], lo: int, hi: int) -> int:
    """The least n in (lo, hi] with ok(n), for an ok that turns from False
    to True once, False at lo and True at hi; neither end is read."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# boolean algebra


def _finite_op(a: set, b: set, op: str) -> set:
    if op == "union":
        return a | b
    if op == "intersection":
        return a & b
    if op == "difference":
        return a - b
    if op == "symdiff":
        return a ^ b
    raise ValueError(f"unknown op {op!r}")


_OPS = ("union", "intersection", "difference", "symdiff")


def boolean_op(a: NatSet, b: NatSet, op: str, config: Config = DEFAULT_CONFIG) -> NatSet:
    """Exact set algebra on combinable backend pairs.

    Combinable: finite x finite; any x finite (both orders); periodic x
    periodic via lcm (modulus budget guarded); ap-union pairs by term
    concatenation (union) or term-level disjoint/identical analysis, falling
    back to lcm normalization; periodic x ap-union through the ap-union route;
    horizon x horizon with equal horizons. Anything else raises
    IncompatibleBackends. a == b short-circuits for every backend.
    """
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}")
    if a == b:
        if op in ("difference", "symdiff"):
            return EMPTY
        return a

    if isinstance(a, FiniteSet) and isinstance(b, FiniteSet):
        return FiniteSet(tuple(_finite_op(set(a.elements), set(b.elements), op)))

    if isinstance(b, FiniteSet):
        return _op_with_finite(a, b, op)
    if isinstance(a, FiniteSet):
        if op in ("difference", "intersection"):
            return _filter_finite(a, b.member, op == "intersection")
        return _op_with_finite(b, a, op)  # union and symdiff commute

    if isinstance(a, HorizonSet) and isinstance(b, HorizonSet):
        if a.horizon != b.horizon:
            raise IncompatibleBackends("horizon sets must share the same horizon")
        return HorizonSet._from_word(a.horizon, _word_op(a._word, b._word, op, a.horizon))

    if isinstance(a, PeriodicSet) and isinstance(b, PeriodicSet):
        return _periodic_pair_op(a, b, op, config)

    if isinstance(a, (PeriodicSet, APUnionSet)) and isinstance(b, (PeriodicSet, APUnionSet)):
        au = as_ap_union(a)
        bu = as_ap_union(b)
        return _ap_pair_op(au, bu, op, config)

    raise IncompatibleBackends(f"cannot combine {a.kind} with {b.kind} under {op}")


def _running(sets: Iterable[NatSet], op: str, config: Config = DEFAULT_CONFIG) -> list[NatSet]:
    """The running results of one op over a chain of sets: s_0, s_0 op s_1,
    (s_0 op s_1) op s_2, ..."""
    return list(accumulate(sets, lambda x, y: boolean_op(x, y, op, config)))


def _word_op(wa: int, wb: int, op: str, width: int) -> int:
    """op on two bit words read as subsets of [0, width)."""
    mask = (1 << width) - 1
    if op == "union":
        return (wa | wb) & mask
    if op == "intersection":
        return wa & wb
    if op == "difference":
        return wa & ~wb & mask
    return (wa ^ wb) & mask


def _filter_finite(f: FiniteSet, member: Callable[[int], bool], keep: bool) -> FiniteSet:
    """The elements x of f with member(x) == keep: a finite set met with or
    minus anything stays finite."""
    return FiniteSet(tuple(x for x in f.elements if member(x) == keep))


def _exceptions(xs: Iterable[int], wanted: Callable[[int], bool],
                rule: Callable[[int], bool]) -> tuple[list[int], list[int]]:
    """(added, removed): the x in xs that are wanted but not rule members, and
    the rule members that are not wanted."""
    added, removed = [], []
    for x in xs:
        want, in_rule = wanted(x), rule(x)
        if want and not in_rule:
            added.append(x)
        elif in_rule and not want:
            removed.append(x)
    return added, removed


def _op_with_finite(a: NatSet, f: FiniteSet, op: str) -> NatSet:
    """Absorb a finite operand into the structured backend's exception fields.

    Exceptions at elements of f are rewritten; all others are kept as they
    are, redundant ones included, since representations reach the payloads.
    """
    if isinstance(a, HorizonSet):
        if f.elements and f.elements[-1] >= a.horizon:
            raise QueryBeyondHorizon("finite operand exceeds the horizon")
        wf = 0
        for x in f.elements:
            wf |= 1 << x
        return HorizonSet._from_word(a.horizon, _word_op(a._word, wf, op, a.horizon))

    if op == "intersection":
        return _filter_finite(f, a.member, True)
    if not isinstance(a, (PeriodicSet, APUnionSet, DyadicBlockSet)):
        raise IncompatibleBackends(f"cannot combine {a.kind} with finite under {op}")

    # union wants every element of f, difference none, symdiff those a lacks
    added, removed = _exceptions(
        f.elements, lambda x: op == "union" or (op == "symdiff" and not a.member(x)),
        a.rule_member)
    touched = set(f.elements)

    def rewrite(old: tuple[int, ...], new: list[int]) -> tuple[int, ...]:
        return tuple(sorted({x for x in old if x not in touched}.union(new)))

    if isinstance(a, PeriodicSet):
        # a result that keeps its rule table and has built no residue index
        # hands the table on, and the residue tuple stays unbuilt
        table = a._table_cache if a._residue_set is None else None
        s = PeriodicSet._built(a.modulus, a.residues if table is None else table,
                               rewrite(a.added, added), rewrite(a.removed, removed),
                               count=a._residue_count)
        return finite_part(s) or s
    return replace(a, extras=rewrite(a.extras, added), removals=rewrite(a.removals, removed))


def _is_sparse(lifted: int, l: int) -> bool:
    """Whether a rule that lifts to `lifted` residues mod l lifts as a set
    of them rather than as a rule table. A set costs one insertion per
    lifted residue (50-200 ns) and gives the residue tuple by one sort; a
    table about 5-10 ns per position of [0, l) to build, whatever the
    residues, and about 25 ns more per position if its residue tuple is
    ever read. Built and read through ``density`` alone, the two meet
    between l / 50 and l / 25 from lcm 9,900 to 9 * 10^6; with the tuple
    read as well, between l / 10 and l / 4. At lcm 132 both take about
    20 µs (symdiff of two rules, 2-core Xeon, CPython 3.11). The threshold
    stays at l / 4, where neither kind of read loses much. per m=12! R={0}
    met with per m=11! R={1} is 13 residues as a set and gigabytes as a
    table."""
    return 4 * lifted < l


def _term_table(terms: Iterable[APTerm], l: int) -> bytes:
    """The rule table mod l of the terms' union, table[r] = 1 iff some term
    has r mod l on its progression: one strided write per term, O(l + Σ l/m).
    Each term's modulus divides l and its offset lies below the modulus."""
    rule = bytearray(l)
    for t in terms:
        rule[t.offset::t.modulus] = b"\x01" * (l // t.modulus)
    return bytes(rule)


def _from_rule(l: int, rule, xs: Iterable[int], wanted: Callable[[int], bool],
               dropped: set | frozenset = frozenset()) -> NatSet:
    """The set with rule mod l given by a residue set or rule table and
    membership ``wanted`` at the points xs, the only points besides the
    rule members ``dropped`` (kept off xs) where it may leave that rule.
    A table gives the rule test at xs and is kept on the result, which
    reads its residue tuple back only when that is read."""
    if isinstance(rule, bytes):
        residues, in_rule = rule, lambda x: rule[x % l]
    else:
        residues, in_rule = tuple(sorted(rule)), lambda x: x % l in rule
    added, removed = _exceptions(xs, wanted, in_rule)
    if dropped:
        removed = sorted(dropped.union(removed))
    # the threshold just past the exceptions, so that extensionally equal
    # constructions compare equal; an empty rule leaves a FiniteSet
    s = PeriodicSet._built(l, residues, tuple(added), tuple(removed))
    return finite_part(s) or s


def _lcm_within(moduli: Iterable[int], budget: int) -> Optional[int]:
    """lcm of the moduli, or None once a partial lcm exceeds the budget (the
    partial lcms divide the full one, so this never multiplies out past it)."""
    l = 1
    for m in moduli:
        l = l // math.gcd(l, m) * m
        if l > budget:
            return None
    return l


def _periodic_pair_op(a: PeriodicSet, b: PeriodicSet, op: str, config: Config) -> NatSet:
    l = _lcm_within((a.modulus, b.modulus), config.modulus_budget)
    if l is None:
        raise ModulusBudgetExceeded(f"lcm {_shown(math.lcm(a.modulus, b.modulus))} exceeds "
                                    f"modulus budget {config.modulus_budget}")
    if _is_sparse(a._residue_count * (l // a.modulus) + b._residue_count * (l // b.modulus), l):
        # residue r mod m lifts to r, r + m, ..., r + l - m mod l
        rule = _finite_op({r + k for k in range(0, l, a.modulus) for r in a.residues},
                          {r + k for k in range(0, l, b.modulus) for r in b.residues}, op)
    else:
        # the tables are built only now, with l under the budget; each byte
        # is a lane of 0 or 1, so one bitwise op combines every residue
        wa, wb = (int.from_bytes(s._rule_table * (l // s.modulus), "little") for s in (a, b))
        rule = _word_op(wa, wb, op, 8 * l).to_bytes(l, "little")
    t = max(a.threshold, b.threshold)
    below = _finite_op(set(a.elements_in(0, t)), set(b.elements_in(0, t)), op) if t else set()
    return _from_rule(l, rule, range(t), below.__contains__)


def as_ap_union(a: NatSet) -> APUnionSet:
    """View a periodic or AP-union set as an AP union (cheap, exact)."""
    if isinstance(a, APUnionSet):
        return a
    if isinstance(a, PeriodicSet):
        # one term per residue has the same rule, so the exceptions carry over
        return APUnionSet(tuple(APTerm(a.modulus, r, 0) for r in a.residues),
                          a.added, a.removed)
    if isinstance(a, FiniteSet):
        return APUnionSet((), a.elements, ())
    raise IncompatibleBackends(f"{a.kind} has no AP-union view")


def _terms_apart(ta: Iterable[APTerm], tb: Iterable[APTerm]) -> bool:
    """Whether each term of tb is identical to, or CRT-disjoint from, each
    term of ta, compared one pair of modulus groups at a time."""
    groups_a = _by_modulus(ta)
    for mb, rb in _by_modulus(tb).items():
        for ma, ra in groups_a.items():
            if ma != mb:
                if _classes_meet(ma, ra.keys(), mb, rb.keys()):
                    return False
            # one modulus: a shared offset is the identical term or a
            # different start of it, which overlaps
            elif any(c in ra and any(s != starts[0] for s in ra[c] + starts)
                     for c, starts in rb.items()):
                return False
    return True


def _ap_pair_terms(a: APUnionSet, b: APUnionSet, op: str) -> Optional[tuple[APTerm, ...]]:
    """Terms whose union is the rule part of a op b, or None when the terms
    alone cannot express it. A term is keyed by its rule (modulus, offset,
    least member), which fixes its start.

    Union concatenates the terms, each key once past a's own. Difference
    works term by term when each subtrahend term is either identical to
    minuend terms or CRT-disjoint from all of them; intersection never does.
    """
    if op not in ("union", "difference"):
        return None
    keys_a = set(a._term_rules)
    if op == "union":
        merged = list(a.terms)
        for t, k in zip(b.terms, b._term_rules):
            if k not in keys_a:
                keys_a.add(k)
                merged.append(t)
        return tuple(merged)
    keys_b = set(b._term_rules)
    # when one operand's keys all recur in a pairwise-disjoint other, every
    # pair of terms is one term of that other twice, or two of its terms
    if not (keys_a <= keys_b and b._disjoint or keys_b <= keys_a and a._disjoint
            or _terms_apart(a.terms, b.terms)):
        return None
    return tuple(t for t, k in zip(a.terms, a._term_rules) if k not in keys_b)


def _sides_union(left: NatSet, right: NatSet, config: Config) -> NatSet:
    """A △ B from its sides left = A ∖ B and right = B ∖ A: the other side
    when one is empty, as whenever one operand lies inside the other (the
    nested stages of a monotone sequence), else their union."""
    if left.is_empty_surely():
        return right
    if right.is_empty_surely():
        return left
    return boolean_op(left, right, "union", config)


def _ap_pair_op(a: APUnionSet, b: APUnionSet, op: str, config: Config) -> NatSet:
    if op == "symdiff":
        return _sides_union(_ap_pair_op(a, b, "difference", config),
                            _ap_pair_op(b, a, "difference", config), config)
    terms = _ap_pair_terms(a, b, op)
    if terms is None:
        # fall back to lcm normalization
        pa = normalize_periodic(a, config)
        pb = normalize_periodic(b, config)
        return _periodic_pair_op(pa, pb, op, config)
    # off the operands' finite exceptions, the result's members are exactly
    # its terms' members, so only those points need exceptions of their own
    points = sorted(set(a.extras) | set(a.removals) | set(b.extras) | set(b.removals))

    def wanted(x: int) -> bool:
        if op == "union":
            return a.member(x) or b.member(x)
        return a.member(x) and not b.member(x)

    # the rule-only set is built just to read exceptions, so not without them
    added, removed = (_exceptions(points, wanted, APUnionSet(terms).rule_member)
                      if points else ((), ()))
    out = APUnionSet(terms, tuple(added), tuple(removed))
    if op == "difference" and a._disjoint_cache:
        # a difference keeps a subset of the minuend's terms
        object.__setattr__(out, "_disjoint_cache", True)
    return out


def normalize_periodic(a: NatSet, config: Config = DEFAULT_CONFIG) -> PeriodicSet:
    """Rewrite an AP union (or periodic/finite set) as a single PeriodicSet.

    The lcm of term moduli and the resulting residue materialization are
    guarded by config.modulus_budget; more than 2^20 points where the set
    may leave its periodic rule (exceptions plus the positions before each
    term's start) raise ModulusBudgetExceeded.
    """
    if isinstance(a, PeriodicSet):
        return a
    if isinstance(a, FiniteSet):
        a = as_ap_union(a)
    if not isinstance(a, APUnionSet):
        raise UnsupportedBackend(f"cannot normalize backend {a.kind}")
    if not a.terms:
        return PeriodicSet._built(1, (), a.extras, ())
    l = _lcm_within((t.modulus for t in a.terms), config.modulus_budget)
    if l is None:
        raise ModulusBudgetExceeded(
            f"lcm of term moduli exceeds modulus budget {config.modulus_budget}")
    # below the threshold the set leaves the mod-l rule only at its extras
    # and removals and at each term's positions before its start
    if sum(t.start for t in a.terms) + len(a.extras) + len(a.removals) > _SIZE_MAX:
        raise ModulusBudgetExceeded(
            f"normalizing needs more than {_SIZE_MAX} exception points")
    listed = set(a.extras).union(a.removals)
    if _is_sparse(sum(l // t.modulus for t in a.terms), l):
        rule = set().union(*(range(t.offset, l, t.modulus) for t in a.terms))
    else:
        rule = _term_table(a.terms, l)
    return _from_rule(l, rule, sorted(listed), a.member,
                      _unstarted(a.terms) - listed)


def _unstarted(terms: tuple[APTerm, ...]) -> set:
    """The positions of each term before its start that no term has covered
    by then: members of the rule mod the lcm that the union leaves out.
    Each other term takes out the whole progression of them it covers."""
    out = set()
    for i, t in enumerate(terms):
        run = set(range(t.offset, t.min_element, t.modulus))
        for j, u in enumerate(terms):
            if j == i or not run:
                continue
            merged = _crt_merge(t.modulus, t.offset, u.modulus, u.offset)
            if merged is not None:
                M, c = merged
                first = max(u.min_element, c)
                run.difference_update(range(first + (c - first) % M, t.min_element, M))
        out |= run
    return out


def complement(a: NatSet, config: Config = DEFAULT_CONFIG) -> NatSet:
    """omega minus a, where representable."""
    if isinstance(a, FiniteSet):
        return PeriodicSet._built(1, (0,), (), a.elements)
    if isinstance(a, PeriodicSet):
        m = a.modulus
        if m > config.modulus_budget:
            raise ModulusBudgetExceeded(f"modulus {_shown(m)} exceeds modulus budget "
                                        f"{config.modulus_budget}")
        # the complement leaves its rule exactly at a's exceptions, and holds
        # the removed ones
        return _from_rule(m, a._rule_table.translate(_FLIP), a.added + a.removed,
                          a._removed_set.__contains__)
    if isinstance(a, APUnionSet):
        return complement(normalize_periodic(a, config), config)
    if isinstance(a, HorizonSet):
        return HorizonSet._from_word(a.horizon, ~a._word & ((1 << a.horizon) - 1))
    raise UnsupportedBackend(f"complement not representable for backend {a.kind}")


def drop_below(a: NatSet, n: int, config: Config = DEFAULT_CONFIG) -> NatSet:
    """A ∖ [0, n), the tail of A from n on.

    Backends map to themselves except PeriodicSet, whose tail is returned as
    an APUnionSet (term starts advance past n; this stays O(residues) even
    for cuts far beyond the period). A DyadicBlockSet keeps its members below
    n as removals, so there a cut above 2^20 raises NoValidCut.
    """
    if n <= 0:
        return a
    if isinstance(a, FiniteSet):
        return FiniteSet(tuple(x for x in a.elements if x >= n))
    if isinstance(a, HorizonSet):
        return HorizonSet._from_word(a.horizon, a._word >> n << n if n < a.horizon else 0)
    if isinstance(a, PeriodicSet):
        return drop_below(as_ap_union(a), n, config)
    if isinstance(a, APUnionSet):
        new_terms = []
        for t in a.terms:
            if t.min_element >= n:
                new_terms.append(t)
            else:
                j0 = -((n - t.offset) // -t.modulus)
                new_terms.append(APTerm(t.modulus, t.offset, max(j0, 0), t.label))
        extras = tuple(x for x in a.extras if x >= n)
        stub = APUnionSet(tuple(new_terms))
        removals = tuple(x for x in a.removals if x >= n and stub.rule_member(x))
        return APUnionSet(tuple(new_terms), extras, removals)
    if isinstance(a, DyadicBlockSet):
        if n > _SIZE_MAX:
            raise NoValidCut(f"cut {_shown(n)} is too deep to materialize on {a.kind}")
        cut = FiniteSet(tuple(a.elements_in(0, n)))
        return boolean_op(a, cut, "difference", config)
    raise UnsupportedBackend(f"drop_below not supported for backend {a.kind}")


def transform(a: NatSet, kind: str, amount: int) -> NatSet:
    """Dilation k·A = {k·a : a ∈ A} or shift A + h = {a + h : a ∈ A}.

    A result the set grammar cannot hold is refused with
    ModulusBudgetExceeded before it is built: a periodic shift whose
    removals (the rule members it exposes in [0, h) and the shifted ones)
    number more than 2^20, and a horizon result wider than 2^20. A factor
    k past the literal digit limit is refused with UnsupportedBackend where
    it would enter a term's label k*N!.
    """
    if kind not in ("dilate", "shift"):
        raise ValueError("transform kind must be 'dilate' or 'shift'")
    if not isinstance(amount, int) or amount < 0 or (kind == "dilate" and amount == 0):
        raise ValueError("dilation needs an integer k >= 1, shift an integer h >= 0")
    k, h = (amount, 0) if kind == "dilate" else (1, amount)

    if isinstance(a, FiniteSet):
        return FiniteSet(tuple(k * x + h for x in a.elements))
    if isinstance(a, PeriodicSet):
        m, rs = a.modulus * k, a.residues
        if kind == "dilate":
            # k·A lies on the multiples of k: residues k·r mod k·m, in order
            return PeriodicSet._built(m, tuple(map(k.__mul__, rs)), tuple(map(k.__mul__, a.added)),
                                      tuple(map(k.__mul__, a.removed)), a.threshold * k)
        # r + h mod m: the residues from m - (h mod m) on wrap around to the front
        q, s = divmod(h, m)
        cut = bisect_left(rs, m - s)
        residues = tuple(map((s - m).__add__, rs[cut:])) + tuple(map(s.__add__, rs[:cut]))
        # shifting exposes the rule's members in [0, h), which A + h lacks:
        # q whole periods, then the wrapped residues, which lie below s; they
        # all lie below the shifted removals
        wrapped = len(rs) - cut
        if q * len(rs) + wrapped + len(a.removed) > _SIZE_MAX:
            raise ModulusBudgetExceeded(f"shifting by {_shown(h)} leaves more than "
                                        f"{_SIZE_MAX} removals")
        exposed = [p + r for p in range(0, q * m, m) for r in residues]
        exposed += map((q * m).__add__, residues[:wrapped])
        return PeriodicSet._built(m, residues, tuple(map(h.__add__, a.added)),
                                  tuple(exposed) + tuple(map(h.__add__, a.removed)),
                                  a.threshold + h)
    if isinstance(a, APUnionSet):
        dilated = kind == "dilate" and any(t.label for t in a.terms)
        if dilated:
            _check_digits(k)  # the label k*N! spells k out
        terms = tuple(APTerm(t.modulus * k, t.offset * k + h, t.start,
                             f"{k}*{t.label}" if dilated and t.label else t.label)
                      for t in a.terms)
        return APUnionSet(terms,
                          tuple(k * x + h for x in a.extras),
                          tuple(k * x + h for x in a.removals))
    if isinstance(a, HorizonSet):
        new_h = k * (a.horizon - 1) + h + 1 if a.horizon > 0 else h
        if new_h > _SIZE_MAX:
            raise ModulusBudgetExceeded(f"a horizon of {_shown(new_h)} exceeds the literal "
                                        f"size limit {_SIZE_MAX}")
        members = [k * x + h for x in a.elements_in(0, a.horizon)]
        return HorizonSet.from_members(new_h, members)
    raise UnsupportedBackend(f"transform not supported for backend {a.kind}")


# ---------------------------------------------------------------------------
# set-literal grammar


# Largest size a literal may ask to materialize: the naturals one brace list
# spells out (ranges included), a horizon H and a cycled fill's threshold (its
# head is stored value by value); also the deepest cut
# drop_below materializes on a block set. Without it fin{0..10^12} would
# exhaust memory instead of failing.
_SIZE_MAX = 1 << 20
# Largest period l, and largest lifted residue count Σ l/m, of an AP union's
# tail table: at most 1 MB per set. The factorial moduli of the witness family
# lie above it and keep the pass over the terms.
_TAIL_MAX = _SIZE_MAX
# Blocks whose slice ends a block set keeps once read. The end of block j has
# j + 1 bits, so keeping every block up to a far read at block J would hold
# O(J^2) bits; past the cap each read computes its slice length afresh.
_BLOCKS_CACHED = 64
# Most digits of a literal natural: Python's own int-from-str limit, so a
# longer one fails here with its size named rather than inside int().
_DIGITS_MAX = 4300
_NAT_LIMIT = 10 ** _DIGITS_MAX
# Largest N of a factorial modulus N!: 1000! (2,568 digits) still prints under
# Python's 4,300-digit int-to-str limit; the witness family needs at most 23!.
_FACTORIAL_MAX = 1000
# Largest k of a dyadic fill value 2^-k: the fill is labelled by its value,
# and 2^14000 (4,215 digits) still prints under the same limit.
_DYADIC_EXP_MAX = 14000

# `\s` in a str pattern is exactly the str.isspace class, so every pattern
# below opens with `\s*`: the whitespace a token may follow.
_WS = re.compile(r"\s*")
_DIGITS = re.compile(r"\d+")


def _expected(what: str, text: str, pos: int) -> ParseError:
    """ParseError "expected <what>", its caret past the whitespace at `pos`."""
    return ParseError(f"expected {what}", text, _WS.match(text, pos).end())


def _build(text: str, at: int, make: Callable, *args):
    """make(*args), its ValueError reported as a ParseError at `at`."""
    try:
        return make(*args)
    except ValueError as e:
        raise ParseError(str(e), text, at) from e


def _natural(text: str, m: re.Match, g: int, after: int = 0,
             most: Optional[int] = None) -> int:
    """Group g of m as a natural; a missing group is "expected a natural
    number" past `after`."""
    digits = m.group(g)
    if digits is None:
        raise _expected("a natural number", text, after)
    at = m.start(g)
    if len(digits) > _DIGITS_MAX:
        raise ParseError(f"a natural of {len(digits)} digits exceeds the literal limit "
                         f"of {_DIGITS_MAX} digits", text, at)
    try:
        n = int(digits)
    except ValueError as e:  # Python's int-from-str limit, if set lower
        raise ParseError(str(e), text, at) from e
    if most is not None and n > most:
        raise ParseError(f"{n} exceeds the literal size limit {most}", text, at)
    return n


# Value patterns. A field's pattern is its key and, optionally, one of these,
# so a well-formed field is one match; where the value part does not match,
# its reader finds the error from the end of the key.
_NAT = r"\s*(\d+)"
# a brace list: its '{', its run of the characters plain items hold, and the
# '}' if it closes the list. One class, so the match is linear in the text;
# the class leaves out the signs and underscores int() takes.
_LIST = r"\s*(\{)([\d\s,]*)(\})?"
# the first factor, '*' and the further factors, a dangling '*', the '!'
_MODULUS = r"\s*(\d+)((?:\s*\*\s*\d+)*)(\s*\*)?(\s*!)?"
_HEX = r"\s*([0-9a-fA-F]+)"
# a list item, a natural or a range lo..hi, and the ',' or '}' after it
_ITEM = re.compile(r"\s*(\d+)?(?:\s*(\.\.)(?:\s*(\d+))?)?\s*([,}])?")
# 2^-k: the '2^-' and k; or p/q: p, the '/' and q
_RATIONAL = re.compile(r"\s*(?:(2\^-)(?:\s*(\d+))?|(\d+)(?:\s*(/)(?:\s*(\d+))?)?)?")
_CYCLE_OPEN = re.compile(r"\s*(\{)")
_CYCLE_NEXT = re.compile(r"\s*([,}])?")
_CYCLE_AT = re.compile(r"\s*@(?:" + _NAT + ")?")


def _read_nat(text: str, m: re.Match, most: Optional[int] = None) -> tuple[int, int]:
    return _natural(text, m, 1, m.end(), most), m.end()


_read_size = partial(_read_nat, most=_SIZE_MAX)


def _read_list(text: str, m: re.Match) -> tuple[tuple[int, ...], int]:
    """The whole items before the first character no plain item holds are
    read by one match and one split, as far as each is one natural within
    the digit limit; the rest, ranges and every error, item by item. Every
    natural the list spells out counts against the size limit, a plain one
    as one, so whether a list is refused does not depend on the order of
    its items."""
    if m.group(1) is None:
        raise _expected("'{'", text, m.end())
    body, closed = m.group(2, 3)
    pieces = body.split(",")
    if closed is None:
        pieces.pop()  # the text past the last comma is no whole item
    elif not body.strip():
        return (), m.end()
    # past the size limit the item walk reports the natural too many
    out = _plain_naturals(pieces[:_SIZE_MAX], len(body) <= _DIGITS_MAX)
    k = len(out)
    if k == len(pieces) and closed:
        return tuple(out), m.end()
    pos = m.start(2) + sum(map(len, pieces[:k])) + k  # each piece read, and its comma
    while True:
        m = _ITEM.match(text, pos)
        n = _natural(text, m, 1, pos)
        hi = n if m.group(2) is None else _natural(text, m, 3, m.end(2))
        if hi < n:
            raise ParseError(f"reversed range {n}..{hi}", text, m.start(1))
        if len(out) + hi - n >= _SIZE_MAX:
            raise ParseError(f"a list spells out at most {_SIZE_MAX} naturals",
                             text, m.start(1))
        out.extend(range(n, hi + 1))
        if m.group(4) == "}":
            return tuple(out), m.end()
        if m.group(4) is None:
            raise _expected("','", text, m.end())
        pos = m.end()


def _plain_naturals(pieces: list[str], short: bool) -> list[int]:
    """The naturals of the leading pieces that int() reads as one natural
    within the digit limit (a piece holds only digits and whitespace);
    `short` says the text they were split from is within that limit."""
    if short or max(map(len, pieces), default=0) <= _DIGITS_MAX:
        try:
            return list(map(int, pieces))
        except ValueError:  # two naturals or none in a piece, or U+001C..U+001F
            pass
    out = []
    for piece in pieces:
        if len(piece) > _DIGITS_MAX:
            break
        try:
            out.append(int(piece))
        except ValueError:
            break
    return out


def _read_modulus(text: str, m: re.Match) -> tuple[tuple[int, Optional[str]], int]:
    """A term modulus and its label: a natural (no label), a factorial N!,
    or naturals times a factorial, k*...*N! (the form a dilation labels).
    A modulus with a factorial keeps its text as the label."""
    if m.group(2) or m.group(3) is not None:  # a product, maybe with a dangling '*'
        found = list(_DIGITS.finditer(text, m.start(1), m.end(2)))
        factors = [_natural(text, d, 0) for d in found]
        if m.group(3) is not None:
            raise _expected("a natural number", text, m.end(3))
        last = found[-1].start()
    else:
        factors, last = [_natural(text, m, 1, m.end())], m.start(1)
    if m.group(4) is None:
        if len(factors) > 1:
            raise ParseError("a product modulus ends in a factorial N!",
                             text, _WS.match(text, m.end()).end())
        return (factors[0], None), m.end()
    n = factors.pop()
    if n > _FACTORIAL_MAX:
        raise ParseError(f"{n}! exceeds the factorial limit {_FACTORIAL_MAX}!", text, last)
    modulus = math.prod(factors) * math.factorial(n)
    if modulus >= _NAT_LIMIT:
        raise ParseError(f"a modulus of more than {_DIGITS_MAX} digits", text, m.start(1))
    return (modulus, "*".join(map(str, factors + [factorial_label(n)]))), m.end()


def _read_hex(text: str, m: re.Match) -> tuple[tuple[int, int], int]:
    """The bits word and where it starts; bit i marks member i."""
    if m.group(1) is None:
        raise _expected("hex bits", text, m.end())
    return (int(m.group(1), 16), m.start(1)), m.end()


def _read_rational(text: str, pos: int) -> tuple[Fraction, int]:
    m = _RATIONAL.match(text, pos)
    if m.group(1):
        k = _natural(text, m, 2, m.end(1))
        if k > _DYADIC_EXP_MAX:
            raise ParseError(f"2^-{k} exceeds the dyadic limit 2^-{_DYADIC_EXP_MAX}",
                             text, m.start(2))
        return Fraction(1, 2 ** k), m.end()
    num = _natural(text, m, 3, pos)
    if m.group(4) is None:
        return Fraction(num), m.end()
    den = _natural(text, m, 5, m.end(4))
    if den == 0:
        raise ParseError("zero denominator", text, m.start(5))
    return Fraction(num, den), m.end()


def _read_fill(text: str, m: re.Match) -> tuple[FillRule, int]:
    at = _WS.match(text, m.end()).end()
    if text.startswith("1/n", at):
        return FillRule.vanishing(lambda n: Fraction(1, max(n, 1)), "1/n",
                                  slice_growth="unbounded"), at + 3
    if text.startswith("2^-n", at):
        return FillRule.vanishing(lambda n: Fraction(1, 2 ** n) if n >= 0 else Fraction(1),
                                  "2^-n", slice_growth="bounded"), at + 4
    if text.startswith("cycle", at):
        sep = _CYCLE_OPEN.match(text, at + 5)
        if sep is None:
            raise _expected("'{'", text, at + 5)
        values = []
        while sep.group(1) != "}":
            value, pos = _read_rational(text, sep.end())
            values.append(value)
            sep = _CYCLE_NEXT.match(text, pos)
            if sep.group(1) is None:
                raise _expected("'}'", text, pos)
        then = _CYCLE_AT.match(text, sep.end())
        t, pos = (0, sep.end()) if then is None else _read_size(text, then)
        return _build(text, at, FillRule.cycled, values, t), pos
    if not _DIGITS.match(text, at):
        raise ParseError("expected a fill rule: p/q, 2^-k, cycle{..}@t, 1/n or 2^-n", text, at)
    value, pos = _read_rational(text, at)
    return _build(text, at, FillRule.constant, value), pos


def _field(key: str, value: str, read: Callable, default: object = None) -> tuple:
    """A `key=value` part of a clause: the key, a pattern matching the key
    and, in its common form, the value; read(text, match), giving the value
    and the end of the field; and the default of an optional field (None
    for a required one)."""
    return key, re.compile(rf"\s*{re.escape(key)}(?:{value})?"), read, default


def _read_fields(text: str, pos: int, fields: tuple) -> tuple[list, int]:
    values = []
    for key, pattern, read, default in fields:
        m = pattern.match(text, pos)
        if m is not None:
            value, pos = read(text, m)
        elif default is None:
            raise _expected(repr(key), text, pos)
        else:
            value = default
        values.append(value)
    return values, pos


def _horizon(text: str, at: int, h: int, bits: tuple[int, int]) -> HorizonSet:
    word, bits_at = bits
    if word >> h:
        raise ParseError("bits set at or beyond the horizon", text, bits_at)
    return HorizonSet._from_word(h, word)


# The grammar: keyword -> (fields, build). build(text, at, *values) makes the
# clause, its ValueError a ParseError at the keyword's position `at`. An ap
# clause is one term; parse_set joins terms by '|'.
_PRODUCTIONS = {
    "fin": ((_field("", _LIST, _read_list),), lambda text, at, xs: FiniteSet(xs)),
    "per": ((_field("m=", _NAT, _read_nat), _field("R=", _LIST, _read_list),
             _field("t=", _NAT, _read_nat, 0), _field("add=", _LIST, _read_list, ()),
             _field("rm=", _LIST, _read_list, ())),
            lambda text, at, *values: _build(text, at, PeriodicSet, *values)),
    "ap": ((_field("a=", _MODULUS, _read_modulus), _field("h=", _NAT, _read_nat),
            _field("j0=", _NAT, _read_nat, 0)),
           lambda text, at, a, h, j0: _build(text, at, APTerm, a[0], h, j0, a[1])),
    "blocks": ((_field("f(n)=", "", _read_fill),), lambda text, at, fill: DyadicBlockSet(fill)),
    "horizon": ((_field("H=", _NAT, _read_size), _field("bits=", _HEX, _read_hex)), _horizon),
}
_KEYWORD = re.compile(r"\s*(" + "|".join(_PRODUCTIONS) + ")")
_NEXT_TERM = re.compile(r"\s*\|\s*(ap)?")


def _clause(text: str, keyword: str, at: int, pos: int) -> tuple[object, int]:
    fields, build = _PRODUCTIONS[keyword]
    values, pos = _read_fields(text, pos, fields)
    return build(text, at, *values), pos


def parse_set(text: str) -> NatSet:
    """Parse the set-literal grammar (see module docstring). Every malformed or
    out-of-range literal raises ParseError with a caret position."""
    m = _KEYWORD.match(text)
    if m is None:
        raise _expected(f"one of {'/'.join(_PRODUCTIONS)}", text, 0)
    s, pos = _clause(text, m.group(1), m.start(1), m.end())
    if m.group(1) == "ap":
        # each term is built before the next one is read
        terms = [s]
        while (bar := _NEXT_TERM.match(text, pos)) is not None:
            if bar.group(1) is None:
                raise ParseError("expected 'ap'", text, bar.end())
            term, pos = _clause(text, "ap", bar.start(1), bar.end())
            terms.append(term)
        s = APUnionSet(tuple(terms))
    end = _WS.match(text, pos).end()
    if end < len(text):
        raise ParseError("trailing input after set literal", text, end)
    return s


def _fmt_nats(xs: Iterable[int]) -> str:
    return "{" + ",".join(str(x) for x in xs) + "}"


def _check_digits(*ns: int) -> None:
    """Refuse a natural of more than ``_DIGITS_MAX`` digits, which has no
    literal (``parse_set`` refuses it, and Python will not print it), with
    UnsupportedBackend naming its digit count."""
    for n in ns:
        if n >= _NAT_LIMIT:
            digits = int(n.bit_length() * 0.30102999566398120)  # log10(2): within one
            digits += n >= 10 ** digits
            raise UnsupportedBackend(f"a natural of {digits} digits exceeds the literal "
                                     f"limit of {_DIGITS_MAX} digits")


def format_set(a: NatSet) -> str:
    """Inverse of parse_set: parse_set(format_set(a)) == a. Sets the grammar
    cannot spell raise UnsupportedBackend, among them a set holding a
    natural of more than 4,300 digits. Each natural a literal prints is
    bounded by one that is checked: a finite set's largest element, a
    periodic set's modulus and threshold, a term's modulus and start."""
    if isinstance(a, FiniteSet):
        _check_digits(*a.elements[-1:])
        return "fin" + _fmt_nats(a.elements)
    if isinstance(a, PeriodicSet):
        _check_digits(a.modulus, a.threshold)
        out = f"per m={a.modulus} R={_fmt_nats(a.residues)}"
        if a.threshold:
            out += f" t={a.threshold}"
        if a.added:
            out += f" add={_fmt_nats(a.added)}"
        if a.removed:
            out += f" rm={_fmt_nats(a.removed)}"
        return out
    if isinstance(a, APUnionSet):
        if a.extras or a.removals or not a.terms:
            raise UnsupportedBackend("ap-union literals need terms and cannot carry "
                                     "extras/removals")
        # a label spells a factorial modulus, but parse_set bounds it too
        _check_digits(*(n for t in a.terms for n in (t.modulus, t.start)))
        parts = [f"ap a={t.modulus_text()} h={t.offset} j0={t.start}" for t in a.terms]
        return " | ".join(parts)
    if isinstance(a, DyadicBlockSet):
        if a.extras or a.removals:
            raise UnsupportedBackend("block literals cannot carry extras/removals")
        # the fill is printed by its label, which must spell the whole rule:
        # a cycled fill's nonzero head, for one, has no literal form
        text = f"blocks f(n)={a.fill.func_label}"
        try:
            exact = parse_set(text) == a
        except ParseError:
            exact = False
        if not exact:
            raise UnsupportedBackend(f"fill rule {a.fill.func_label!r} has no exact literal form")
        return text
    if isinstance(a, HorizonSet):
        _check_digits(a.horizon)
        return f"horizon H={a.horizon} bits={a._word:x}"
    raise UnsupportedBackend(f"no literal form for backend {a.kind}")
