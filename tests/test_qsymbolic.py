"""Symbolic rational-function layer and the cited ledgers."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import group
from rigidity.errors import PolynomialDivisionError
from rigidity.qsymbolic import (
    AMBIENT_ORDER_POLY,
    CITATION_DIMENSIONS,
    CITATION_LEDGER,
    CITATION_ORDER_POLY,
    DIMENSION_DATA,
    LEDGER_ONE,
    LEDGER_TWO,
    DimensionDatum,
    Ledger,
    LedgerEntry,
    QPolynomial,
    QRationalFunction,
    dimension_criterion,
    lang_splitting_data,
    normalized_solution_count,
    orbit_mass,
    poly_gcd,
)

Q = QPolynomial.monomial(1, 1)


def test_polynomial_arithmetic():
    assert (Q + 1) * (Q - 1) == Q * Q - 1
    assert (Q + 1) ** 2 == Q * Q + Q.scale(2) + 1
    assert Q ** 0 == QPolynomial.one()
    assert (Q - Q).is_zero()
    assert QPolynomial.zero().degree == -1
    assert (Q ** 3).degree == 3
    assert Q.scale(0).is_zero()
    with pytest.raises(ValueError):
        Q ** -1


def test_polynomial_evaluation():
    p = Q ** 2 - Q + 1
    assert p.evaluate(5) == 21
    assert p.evaluate(Fraction(1, 2)) == Fraction(3, 4)
    assert QPolynomial.zero().evaluate(7) == 0


def test_polynomial_display():
    assert str(AMBIENT_ORDER_POLY) == "q^14 - q^12 - q^8 + q^6"
    assert str(QPolynomial.zero()) == "0"
    assert str(Q.scale(-1) + 1) == "-q + 1"


def test_poly_gcd():
    a = (Q + 1) * (Q - 1)
    b = (Q + 1) * Q
    assert poly_gcd(a, b) == Q + 1
    assert poly_gcd(a, QPolynomial.zero()) == a
    assert poly_gcd(a.scale(7), QPolynomial.zero()) == a
    g = poly_gcd(Q.scale(3) * (Q ** 2 - 1), Q.scale(2) * Q * (Q - 1))
    assert g == Q * Q - Q


def test_division_by_zero_polynomial():
    with pytest.raises(PolynomialDivisionError):
        Q / QPolynomial.zero()
    with pytest.raises(PolynomialDivisionError):
        QRationalFunction.one() / QRationalFunction.zero()


def test_rational_function_reduction():
    f = (Q ** 2 - 1) / (Q + 1)
    assert f == QRationalFunction.from_polynomial(Q - 1)
    g = Q.scale(2) / Q.scale(6)
    assert g.as_constant() == Fraction(1, 3)
    # denominators come out monic
    h = Q / Q.scale(4)
    assert h.denominator == QPolynomial.one()
    assert h.numerator == QPolynomial.constant(Fraction(1, 4))


def test_rational_function_arithmetic_and_idempotence():
    f = QPolynomial.one() / (Q - 1)
    g = QPolynomial.one() / (Q + 1)
    s = f + g
    assert s == Q.scale(2) / (Q ** 2 - 1)
    assert s - g == f
    assert (f * g) == QPolynomial.one() / (Q ** 2 - 1)
    assert f / f == QRationalFunction.one()
    again = QRationalFunction(s.numerator, s.denominator)
    assert again == s
    assert hash(again) == hash(s)


def test_rational_function_evaluation_and_poles():
    f = (Q ** 2 + 1) / (Q - 1)
    assert f.evaluate(2) == 5
    with pytest.raises(ZeroDivisionError):
        f.evaluate(1)


def test_ledger_invariants():
    with pytest.raises(ValueError):
        LedgerEntry("u3", Q, QPolynomial.zero())
    good = tuple(LEDGER_ONE.entries)
    with pytest.raises(ValueError):
        Ledger(name="x", entries=good[:2], citation="c")
    relabeled = (LedgerEntry("u2", good[0].a_value, good[0].centralizer_order),) + good[1:]
    with pytest.raises(ValueError):
        Ledger(name="x", entries=relabeled, citation="c")


def test_embedded_ledgers_carry_citations():
    for ledger in (LEDGER_ONE, LEDGER_TWO):
        assert ledger.citation == CITATION_LEDGER
        assert tuple(e.label for e in ledger.entries) == ("u3", "u4", "u5")
    assert LEDGER_ONE.name == "triple-1"
    assert LEDGER_TWO.name == "triple-2"
    assert "Chang-Ree" in CITATION_LEDGER
    assert CITATION_ORDER_POLY
    assert CITATION_DIMENSIONS


def test_normalized_counts_sum_to_one():
    for ledger in (LEDGER_ONE, LEDGER_TWO):
        total = normalized_solution_count(ledger.entries)
        assert total.is_one()
        assert total == QRationalFunction.one()


def test_normalized_count_specializations():
    for ledger in (LEDGER_ONE, LEDGER_TWO):
        total = normalized_solution_count(ledger.entries)
        for q in (5, 25, 125):
            assert total.evaluate(q) == 1
            mass = sum(
                (
                    Fraction(e.a_value.evaluate(q), e.centralizer_order.evaluate(q))
                    for e in ledger.entries
                ),
                Fraction(0),
            )
            assert mass == 1


def test_normalized_count_edge_cases():
    zeroed = tuple(
        LedgerEntry(e.label, QPolynomial.zero(), e.centralizer_order)
        for e in LEDGER_ONE.entries
    )
    assert normalized_solution_count(zeroed).is_zero()
    with pytest.raises(ValueError):
        normalized_solution_count(())


def test_second_ledger_has_a_vanishing_middle_entry():
    middle = LEDGER_TWO.entries[1]
    assert middle.a_value.is_zero()
    assert not LEDGER_TWO.entries[0].a_value.is_zero()


def test_orbit_mass():
    assert orbit_mass([6, 3, 2]) == 1
    assert orbit_mass([6, 3, 2, 2, 2]) == 2
    assert orbit_mass([1]) == 1
    with pytest.raises(ValueError):
        orbit_mass([])
    with pytest.raises(ValueError):
        orbit_mass([6, 0])


def test_lang_splitting_data():
    H = group("Sym(3)")
    data = lang_splitting_data(H)
    assert data == (6, 3, 2)
    # class equation: the centralizer orders recover |H|
    assert sum(H.order // c for c in data) == H.order

    from rigidity.groups import cyc_group

    assert lang_splitting_data(cyc_group(1)) == (1,)
    assert lang_splitting_data(cyc_group(4)) == (4, 4, 4, 4)


def test_splitting_matches_ledger_centralizer_scales():
    scales = sorted(
        (e.centralizer_order.leading_coefficient() for e in LEDGER_ONE.entries),
        reverse=True,
    )
    assert scales == [6, 3, 2]
    assert scales == [Fraction(c) for c in lang_splitting_data(group("Sym(3)"))]


def test_dimension_criterion():
    dims = [d.class_dimension for d in DIMENSION_DATA]
    assert dims == [8, 10, 10]
    total, reached = dimension_criterion(dims, 14)
    assert (total, reached) == (28, True)
    assert dimension_criterion([8, 10, 9], 14) == (27, False)
    with pytest.raises(ValueError):
        dimension_criterion([-1], 14)
    with pytest.raises(ValueError):
        DimensionDatum("x", 15)
    with pytest.raises(ValueError):
        DimensionDatum("x", -1)


def test_ambient_order_values():
    assert AMBIENT_ORDER_POLY.evaluate(5) == 5_859_000_000
    six_q4 = LEDGER_ONE.entries[0].centralizer_order
    ratio = AMBIENT_ORDER_POLY / six_q4
    assert ratio.evaluate(5) == 1_562_400
    assert (LEDGER_ONE.entries[0].a_value / six_q4).as_constant() == Fraction(1, 6)
