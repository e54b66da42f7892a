"""Symbolic rational-function layer and the cited ledgers."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import group
from rigidity.errors import PolynomialDivisionError
from rigidity.qsymbolic import (
    CITATION_DIMENSIONS,
    CITATION_LEDGER,
    DIMENSION_DATA,
    LEDGER_ONE,
    LEDGER_TWO,
    DimensionDatum,
    Ledger,
    LedgerEntry,
    QPolynomial,
    QRationalFunction,
    _poly_divmod,
    dimension_criterion,
    lang_splitting_data,
    normalized_solution_count,
    orbit_mass,
    poly_gcd,
)

Q = QPolynomial.monomial(1, 1)
ONE = QPolynomial.one()


def test_polynomial_arithmetic():
    assert (Q + ONE) * (Q - ONE) == Q * Q - ONE
    assert (Q + ONE) * (Q + ONE) == Q * Q + Q.scale(2) + ONE
    assert (Q - Q).is_zero()
    assert QPolynomial.zero().degree == -1
    assert (Q * Q * Q).degree == 3
    assert Q.scale(0).is_zero()
    assert (Q * QPolynomial.zero()).is_zero()
    # no coercion of plain numbers: constants are built explicitly
    for operation in (
        lambda: Q + 1,
        lambda: 1 + Q,
        lambda: Q - Fraction(1, 2),
        lambda: 2 - Q,
        lambda: Q * 2,
        lambda: 2 * Q,
    ):
        with pytest.raises(TypeError):
            operation()


def test_polynomial_evaluation():
    p = Q * Q - Q + ONE
    assert p.evaluate(5) == 21
    assert p.evaluate(Fraction(1, 2)) == Fraction(3, 4)
    assert QPolynomial.zero().evaluate(7) == 0


def test_polynomial_display():
    ambient = QPolynomial({14: 1, 12: -1, 8: -1, 6: 1})
    assert str(ambient) == "q^14 - q^12 - q^8 + q^6"
    assert str(QPolynomial.zero()) == "0"
    assert str(Q.scale(-1) + ONE) == "-q + 1"
    assert str(Q.scale(Fraction(-1, 2)) + Q * Q.scale(3)) == "3*q^2 - 1/2*q"
    assert repr(Q - ONE) == "QPolynomial(q - 1)"


def test_poly_gcd():
    a = (Q + ONE) * (Q - ONE)
    b = (Q + ONE) * Q
    assert poly_gcd(a, b) == Q + ONE
    assert poly_gcd(a, QPolynomial.zero()) == a
    assert poly_gcd(a.scale(7), QPolynomial.zero()) == a
    g = poly_gcd(Q.scale(3) * (Q * Q - ONE), Q.scale(2) * Q * (Q - ONE))
    assert g == Q * Q - Q


def test_division_by_zero_polynomial():
    with pytest.raises(PolynomialDivisionError):
        QRationalFunction(Q, QPolynomial.zero())
    with pytest.raises(PolynomialDivisionError):
        _poly_divmod(Q, QPolynomial.zero())


def test_rational_function_reduction():
    f = QRationalFunction(Q * Q - ONE, Q + ONE)
    assert f == QRationalFunction(Q - ONE, ONE)
    g = QRationalFunction(Q.scale(2), Q.scale(6))
    assert (g.numerator, g.denominator) == (QPolynomial({0: Fraction(1, 3)}), ONE)
    # denominators come out monic
    h = QRationalFunction(Q, Q.scale(4))
    assert h.denominator == ONE
    assert h.numerator == QPolynomial({0: Fraction(1, 4)})
    k = QRationalFunction(Q + ONE, Q.scale(2) - ONE.scale(4))
    assert k.denominator == Q - ONE.scale(2)
    assert k.numerator == (Q + ONE).scale(Fraction(1, 2))
    assert QRationalFunction(QPolynomial.zero(), Q) == QRationalFunction.zero()
    assert QRationalFunction(Q.scale(3), Q.scale(3)).is_one()
    assert not f.is_one()


def test_rational_function_arithmetic_and_idempotence():
    f = QRationalFunction(ONE, Q - ONE)
    g = QRationalFunction(ONE, Q + ONE)
    s = f + g
    assert s == QRationalFunction(Q.scale(2), Q * Q - ONE)
    assert s + QRationalFunction(ONE.scale(-1), Q + ONE) == f
    assert f + QRationalFunction.zero() == f
    assert str(s) == "(2*q) / (q^2 - 1)"
    assert str(f + QRationalFunction(Q.scale(-1), Q - ONE)) == "-1"
    assert repr(f) == "QRationalFunction((1) / (q - 1))"
    again = QRationalFunction(s.numerator, s.denominator)
    assert again == s
    assert hash(again) == hash(s)


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
    assert CITATION_DIMENSIONS


def test_normalized_counts_sum_to_one():
    for ledger in (LEDGER_ONE, LEDGER_TWO):
        total = normalized_solution_count(ledger.entries)
        assert total.is_one()
        assert total == QRationalFunction(ONE, ONE)


def test_normalized_count_specializations():
    # a tampered ledger whose sum is not 1 and keeps a non-trivial denominator
    q4 = Q * Q * Q * Q
    tampered = (
        LedgerEntry("u3", q4 - Q.scale(Fraction(1, 2)), (q4 - ONE).scale(6)),
        LedgerEntry("u4", Q * Q, (q4 + Q * Q).scale(3)),
        LedgerEntry("u5", q4, q4.scale(2)),
    )
    for entries in (LEDGER_ONE.entries, LEDGER_TWO.entries, tampered):
        total = normalized_solution_count(entries)
        for q in (5, 25, 125):
            mass = sum(
                (
                    Fraction(e.a_value.evaluate(q), e.centralizer_order.evaluate(q))
                    for e in entries
                ),
                Fraction(0),
            )
            assert total.numerator.evaluate(q) == mass * total.denominator.evaluate(q)
            assert (mass == 1) == (entries is not tampered)
    assert str(total) == "(2/3*q^4 + 1/3*q^2 - 1/12*q - 5/6) / (q^4 - 1)"


def test_normalized_count_edge_cases():
    zeroed = tuple(
        LedgerEntry(e.label, QPolynomial.zero(), e.centralizer_order)
        for e in LEDGER_ONE.entries
    )
    assert normalized_solution_count(zeroed) == QRationalFunction.zero()
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
