"""Exact root-of-unity arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest

from conftest import cyclotomic_sum, reduce_mod_reference
from rigidity.cyclotomic import (
    Cyclotomic,
    _power_basis,
    conjugate_mod,
    cyclotomic_polynomial,
    euler_phi,
    dot_mod,
    integer_coordinates,
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
        for k in range(1, e):
            assert cyclotomic_sum([(1, [z] * k)]) != 1
        assert cyclotomic_sum([(1, [z] * e)]) == 1


def test_basic_identities():
    assert cyclotomic_sum([(1, [zeta(4), zeta(4)])]) == -1
    z3 = zeta(3)
    assert cyclotomic_sum([(1, [z3, z3]), (1, [z3]), (1, [])]) == 0
    assert cyclotomic_sum([(1, [zeta(3), zeta(4)])]) == zeta(12, 7)


def test_full_root_sums_vanish():
    for e in range(2, 11):
        roots = [zeta(e, k) for k in range(e)]
        total = cyclotomic_sum((1, [z]) for z in roots)
        assert (total.conductor, total.coeffs) == (1, {})
        assert total == 0
        _, vectors = integer_coordinates(roots, e)
        assert all(sum(column) == 0 for column in zip(*vectors))


def test_conductor_is_minimized():
    assert zeta(6).conductor == 3
    assert zeta(6) == cyclotomic_sum([(1, [zeta(3)]), (1, [])])
    assert zeta(4, 2) == -1
    assert zeta(4, 2).conductor == 1
    assert zeta(8, 2).conductor == 4
    assert zeta(12, 4).conductor == 3
    assert Cyclotomic.from_exponent_map(5, {1: 1, 4: 1}).conductor == 5


def test_rational_detection():
    assert Cyclotomic.from_rational(Fraction(3, 2)).is_rational()
    assert Cyclotomic.from_rational(Fraction(3, 2)).as_rational() == Fraction(3, 2)
    assert not zeta(5).is_rational()
    with pytest.raises(ValueError):
        zeta(5).as_rational()


def test_integrality():
    # the power basis is integral, so a value is an algebraic integer
    # exactly when its coordinates need no common denominator
    def denominator(value):
        return integer_coordinates([value], value.conductor)[0]

    assert denominator(zeta(8)) == 1
    assert denominator(Cyclotomic.from_exponent_map(8, {1: 1, 3: 1})) == 1
    assert denominator(Cyclotomic.from_exponent_map(8, {1: Fraction(1, 2)})) == 2
    assert denominator(Cyclotomic.from_rational(7)) == 1
    assert denominator(Cyclotomic.from_rational(Fraction(1, 3))) == 3


def test_division():
    z = zeta(7)
    for q in (2, Fraction(3, 5), Fraction(-1, 4)):
        quotient = cyclotomic_sum([(1 / Fraction(q), [z])])
        assert quotient == Cyclotomic.from_exponent_map(7, {1: 1 / Fraction(q)})
        assert cyclotomic_sum([(q, [quotient])]) == z
    # a value type: scaling happens in the weights, never by an operator
    with pytest.raises(TypeError):
        z / 2


def test_conjugation():
    _, (z, z_bar) = integer_coordinates([zeta(5), zeta(5, 4)], 5)
    assert conjugate_mod(z, 5) == z_bar
    assert conjugate_mod((1,), 1) == (1,)
    # ζ₂ = −1 is its own inverse
    assert conjugate_mod((-3,), 2) == (-3,)
    _, (v,) = integer_coordinates([Cyclotomic.from_exponent_map(7, {2: 1, 5: 1})], 7)
    assert conjugate_mod(v, 7) == v
    # ζ^k ↦ ζ^−k on exponent maps, against values built from the mirrored map
    rng = random.Random(11)
    for e in (1, 2, 3, 4, 5, 8, 12, 15, 56):
        for _ in range(10):
            mapping = {
                rng.randrange(e): Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                for _ in range(3)
            }
            image = {-k % e: c for k, c in mapping.items()}
            _, (a, a_bar) = integer_coordinates(
                [Cyclotomic.from_exponent_map(e, m) for m in (mapping, image)], e
            )
            assert conjugate_mod(a, e) == a_bar
            assert conjugate_mod(a_bar, e) == a


def test_equality_and_hash_with_rationals():
    one = Cyclotomic.from_rational(1)
    assert one == 1
    assert hash(one) == hash(Cyclotomic.from_rational(Fraction(1)))
    half = Cyclotomic.from_rational(Fraction(1, 2))
    assert half == Fraction(1, 2)
    assert zeta(3) != 1
    assert len({zeta(3), zeta(3, 1), zeta(3, 2)}) == 2


def test_sort_key_puts_one_first():
    values = [zeta(3), Cyclotomic.from_rational(-2), Cyclotomic.from_rational(1), zeta(4)]
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
    one_minus_i = cyclotomic_sum([(1, []), (-1, [zeta(4)])])
    i_minus_one = cyclotomic_sum([(1, [zeta(4)]), (-1, [])])
    assert one_minus_i == cyclotomic_sum([(-1, [i_minus_one])])
    assert one_minus_i == Cyclotomic.from_exponent_map(4, {0: 1, 1: -1})
    assert cyclotomic_sum([(3, []), (-1, [Cyclotomic.from_rational(1)])]) == 2
    with pytest.raises(TypeError):
        1 - zeta(4)
    for name in ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "conjugate"):
        assert not hasattr(Cyclotomic, name), name


def test_integer_coordinates_and_dot_mod_agree_with_cyclotomic_products():
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
            ab = cyclotomic_sum([(1, [a, b])])
            D, (va, vb, vab) = integer_coordinates([a, b, ab], e)
            assert all(len(v) == euler_phi(e) for v in (va, vb, vab))
            lifted = [
                _power_basis(((k * (e // v.conductor), c) for k, c in v.coeffs.items()), e)
                for v in (a, b, ab)
            ]
            assert D == lcm(*(c.denominator for vec in lifted for c in vec))
            assert (va, vb, vab) == tuple(tuple(D * c for c in vec) for vec in lifted)
            assert dot_mod((va,), (vb,), e) == tuple(D * c for c in vab)
    D, ((x,), (y,)) = integer_coordinates(
        [Cyclotomic.from_rational(Fraction(3, 4)), Cyclotomic.from_rational(1)], 1
    )
    assert (D, x, y) == (4, 3, 4)


def test_dot_mod_sums_products_of_pairs():
    rng = random.Random(6)
    for e in (1, 2, 3, 4, 5, 8, 12, 15, 56):
        for pairs in (0, 1, 2, 5):
            values = [
                Cyclotomic.from_exponent_map(
                    e, {rng.randrange(e): Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                        for _ in range(3)}
                )
                for _ in range(2 * pairs)
            ]
            xs, ys = values[:pairs], values[pairs:]
            total = cyclotomic_sum((1, [x, y]) for x, y in zip(xs, ys))
            D, vectors = integer_coordinates(values + [total], e)
            *lifted, expected = vectors
            assert dot_mod(lifted[:pairs], lifted[pairs:], e) == tuple(D * c for c in expected)


def test_power_basis_matches_long_division():
    # exponents below 0 and at or past e, at conductors ≡ 2 mod 4 too
    rng = random.Random(12)
    for e in (1, 2, 3, 4, 5, 8, 9, 12, 15, 18, 56, 660, 1092):
        for _ in range(10):
            terms = [(rng.randrange(-2 * e, 3 * e), rng.randint(-5, 5)) for _ in range(6)]
            coeffs = [0] * e
            for k, c in terms:
                coeffs[k % e] += c
            assert _power_basis(terms, e) == reduce_mod_reference(coeffs, e)


def test_lift_needs_a_multiple_of_the_conductor():
    # ζ₅ at conductor 11 has no coordinates; a silent lift would give ζ₁₁²
    for values, e in (([zeta(5)], 11), ([zeta(5)], 6), ([zeta(4), zeta(3)], 4)):
        with pytest.raises(ValueError, match="not a multiple"):
            integer_coordinates(values, e)
    # ζ₅ = ζ₁₅³ and ζ₃ = ζ₁₅⁵
    assert integer_coordinates([zeta(5), zeta(3)], 15) == (
        1,
        ((0, 0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1, 0, 0)),
    )
