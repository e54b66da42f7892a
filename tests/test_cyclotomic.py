"""Exact root-of-unity arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest

from rigidity.cyclotomic import (
    ONE,
    ZERO,
    Cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    integer_coordinates,
    multiply_mod,
    zeta,
)

KNOWN_POLYS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_polynomials_match_knowns():
    for n, coeffs in KNOWN_POLYS.items():
        assert cyclotomic_polynomial(n) == coeffs


def test_cyclotomic_polynomial_degree_is_phi():
    for n in range(1, 40):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_large_index_coefficients_leave_unit_range():
    # first index with a coefficient of magnitude 2
    assert -2 in cyclotomic_polynomial(105)


def test_euler_phi_table():
    table = [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert [euler_phi(n) for n in range(1, 13)] == table


def test_roots_of_unity_have_right_order():
    for e in range(1, 13):
        z = zeta(e)
        acc = ONE
        for k in range(1, e):
            acc = acc * z
            assert acc != 1
        assert acc * z == 1


def test_basic_identities():
    assert zeta(4) * zeta(4) == -1
    z3 = zeta(3)
    assert z3 * z3 + z3 + 1 == 0
    assert zeta(3) * zeta(4) == zeta(12, 7)


def test_full_root_sums_vanish():
    for e in range(2, 11):
        total = ZERO
        for k in range(e):
            total = total + zeta(e, k)
        assert total.is_zero()
        assert total == 0


def test_conductor_is_minimized():
    assert zeta(6).conductor == 3
    assert zeta(6) == zeta(3) + 1
    assert zeta(4, 2) == -1
    assert zeta(4, 2).conductor == 1
    assert zeta(8, 2).conductor == 4
    assert zeta(12, 4).conductor == 3
    assert (zeta(5) + zeta(5, 4)).conductor == 5


def test_rational_detection():
    assert Cyclotomic.from_rational(Fraction(3, 2)).is_rational()
    assert Cyclotomic.from_rational(Fraction(3, 2)).as_rational() == Fraction(3, 2)
    assert not zeta(5).is_rational()
    with pytest.raises(ValueError):
        zeta(5).as_rational()


def test_integrality():
    assert zeta(8).is_integral()
    assert (zeta(8) + zeta(8, 3)).is_integral()
    assert not (zeta(8) / 2).is_integral()
    assert Cyclotomic.from_rational(7).is_integral()
    assert not Cyclotomic.from_rational(Fraction(1, 3)).is_integral()


def test_division():
    z = zeta(7)
    assert (z / 2) * 2 == z
    assert (z / Fraction(3, 5)) * Fraction(3, 5) == z
    with pytest.raises(ZeroDivisionError):
        z / 0


def test_conjugation():
    assert zeta(5).conjugate() == zeta(5, 4)
    assert zeta(1).conjugate() == 1
    v = zeta(7, 2) + zeta(7, 5)
    assert v.conjugate() == v


def test_equality_and_hash_with_rationals():
    one = Cyclotomic.from_rational(1)
    assert one == 1
    assert hash(one) == hash(Cyclotomic.from_rational(Fraction(1)))
    half = Cyclotomic.from_rational(Fraction(1, 2))
    assert half == Fraction(1, 2)
    assert zeta(3) != 1
    assert len({zeta(3), zeta(3, 1), zeta(3, 2)}) == 2


def test_sort_key_puts_one_first():
    values = [zeta(3), Cyclotomic.from_rational(-2), ONE, zeta(4)]
    ranked = sorted(values, key=lambda c: c.sort_key())
    assert ranked[0] == 1


def test_from_exponent_map():
    v = Cyclotomic.from_exponent_map(6, {1: Fraction(1)})
    assert v == zeta(6)
    w = Cyclotomic.from_exponent_map(4, {0: Fraction(2), 2: Fraction(2)})
    assert w == 0
    with pytest.raises(ValueError):
        Cyclotomic.from_exponent_map(0, {})


def test_subtraction_orientation():
    assert 1 - zeta(4) == -(zeta(4) - 1)
    assert (3 - Cyclotomic.from_rational(1)) == 2


def test_integer_coordinates_and_multiply_mod_agree_with_cyclotomic_products():
    rng = random.Random(5)
    for e in (1, 3, 4, 5, 8, 12, 15, 56):
        for _ in range(20):
            a, b = (
                Cyclotomic.from_exponent_map(
                    e, {rng.randrange(e): Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                        for _ in range(3)}
                )
                for _ in range(2)
            )
            D, (va, vb, vab) = integer_coordinates([a, b, a * b], e)
            assert all(len(v) == euler_phi(e) for v in (va, vb, vab))
            lifted = [c for value in (a, b, a * b) for c in value._lift(e)]
            assert D == lcm(*(c.denominator for c in lifted))
            assert (va, vb, vab) == tuple(
                tuple(D * c for c in value._lift(e)) for value in (a, b, a * b)
            )
            assert multiply_mod(va, vb, e) == tuple(D * c for c in vab)
    D, ((x,), (y,)) = integer_coordinates([Cyclotomic.from_rational(Fraction(3, 4)), ONE], 1)
    assert (D, x, y) == (4, 3, 4)
