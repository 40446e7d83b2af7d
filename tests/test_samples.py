"""Seeded generators: determinism, ranges, and the bounded-lcm pool."""

import math
from fractions import Fraction

from densitas.natset import DyadicBlockSet, PeriodicSet
from densitas.samples import (
    MODULI_POOL,
    block_battery,
    chunked,
    periodic_battery,
    pool_battery,
    thinning_blocks,
)


def test_pool_lcms_stay_bounded():
    assert MODULI_POOL[0] == 2 and MODULI_POOL[-1] == 360
    for a in MODULI_POOL:
        for b in MODULI_POOL:
            assert math.lcm(a, b) <= 27720


def test_batteries_are_seed_deterministic():
    assert periodic_battery(50, 9) == periodic_battery(50, 9)
    assert periodic_battery(50, 9) != periodic_battery(50, 10)
    assert pool_battery(50, 9) == pool_battery(50, 9)
    assert block_battery(20, 9) == block_battery(20, 9)


def test_periodic_battery_ranges():
    sets = periodic_battery(300, 1)
    assert all(isinstance(a, PeriodicSet) for a in sets)
    assert all(2 <= a.modulus <= 360 for a in sets)
    assert any(not a.residues for a in sets) or True
    assert len({a.modulus for a in sets}) > 50


def test_pool_battery_draws_from_pool():
    sets = pool_battery(200, 4)
    assert all(a.modulus in MODULI_POOL for a in sets)


def test_block_battery_fills_are_dyadic_cycles():
    for b in block_battery(40, 2):
        assert isinstance(b, DyadicBlockSet)
        assert b.fill.structure == "cycle"
        assert 1 <= len(b.fill.cycle) <= 4
        for v in b.fill.cycle:
            assert 0 <= v <= 1
            assert v.denominator & (v.denominator - 1) == 0


def test_thinning_blocks_shape():
    fam = thinning_blocks(5)
    assert [b.fill.cycle[0] for b in fam] == \
        [Fraction(1, 2 ** n) for n in range(1, 6)]


def test_chunked_covers_everything():
    items = list(range(10))
    chunks = list(chunked(items, 3))
    assert [len(c) for c in chunks] == [3, 3, 3, 1]
    assert [x for c in chunks for x in c] == items
