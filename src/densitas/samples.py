"""Seeded sample generators for the randomized batteries.

Every generator is driven by the splitmix64 stream, so a battery is fully
determined by its seed. Two modulus regimes are exposed: free moduli up to a
cap (fine for per-set checks), and moduli drawn from the divisors of 27720
(2^3 * 3^2 * 5 * 7 * 11), whose pairwise lcms never exceed 27720. The second
regime keeps boolean combinations of random periodic sets cheap, which is
what the pairwise axiom batteries need.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from .natset import DyadicBlockSet, FillRule, PeriodicSet
from .rng import SplitMix64

__all__ = [
    "MODULI_POOL",
    "random_periodic",
    "periodic_battery",
    "pool_battery",
    "random_block",
    "block_battery",
    "thinning_blocks",
    "chunked",
]

_POOL_BASE = 27720

MODULI_POOL = tuple(m for m in range(2, 361) if _POOL_BASE % m == 0)


def _draw_residues(rng: SplitMix64, m: int) -> tuple[int, ...]:
    count = rng.below(m + 1)
    picked = set()
    while len(picked) < count:
        picked.add(rng.below(m))
    return tuple(sorted(picked))


def random_periodic(rng: SplitMix64, max_modulus: int = 360) -> PeriodicSet:
    """A periodic set with modulus in [2, max_modulus] and a uniformly drawn
    residue count. Roughly one set in max_modulus comes out empty or full,
    which the batteries want as edge cases."""
    m = 2 + rng.below(max_modulus - 1)
    return PeriodicSet(m, _draw_residues(rng, m))


def _pool_periodic(rng: SplitMix64, pool: Sequence[int]) -> PeriodicSet:
    m = pool[rng.below(len(pool))]
    return PeriodicSet(m, _draw_residues(rng, m))


def periodic_battery(count: int, seed: int,
                     max_modulus: int = 360) -> tuple[PeriodicSet, ...]:
    rng = SplitMix64(seed)
    return tuple(random_periodic(rng, max_modulus) for _ in range(count))


def pool_battery(count: int, seed: int,
                 pool: Sequence[int] = MODULI_POOL) -> tuple[PeriodicSet, ...]:
    """count periodic sets whose moduli come from the bounded-lcm pool."""
    rng = SplitMix64(seed)
    return tuple(_pool_periodic(rng, pool) for _ in range(count))


def random_block(rng: SplitMix64, max_exponent: int = 6) -> DyadicBlockSet:
    """A block set with a cycled dyadic fill: cycle length in 1..4, values
    p/2^e with e <= max_exponent, threshold in 0..3."""
    length = 1 + rng.below(4)
    values = []
    for _ in range(length):
        e = rng.below(max_exponent + 1)
        p = rng.below(2 ** e + 1)
        values.append(Fraction(p, 2 ** e))
    return DyadicBlockSet(FillRule.cycled(tuple(values),
                                          threshold=rng.below(4)))


def block_battery(count: int, seed: int,
                  max_exponent: int = 6) -> tuple[DyadicBlockSet, ...]:
    rng = SplitMix64(seed)
    return tuple(random_block(rng, max_exponent) for _ in range(count))


def thinning_blocks(depth: int) -> tuple[DyadicBlockSet, ...]:
    """The constant-fill family with slice densities 2^-n for n = 1..depth."""
    return tuple(DyadicBlockSet(FillRule.constant(Fraction(1, 2 ** n)))
                 for n in range(1, depth + 1))


def chunked(items: Sequence, size: int) -> Iterator[tuple]:
    for i in range(0, len(items), size):
        yield tuple(items[i:i + size])
