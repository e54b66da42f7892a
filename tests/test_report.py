"""Serialization of exact values into reports."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from conftest import cyclotomic_sum
from rigidity.cyclotomic import zeta
from rigidity.elements import Permutation, PrimeFieldMatrix
from rigidity.qsymbolic import QPolynomial, QRationalFunction
from rigidity.report import (
    canonical_json,
    cyclo_text,
    element_text,
    fraction_text,
    jsonable,
    render_text,
)


def test_jsonable_scalars():
    assert jsonable(True) is True
    assert jsonable(None) is None
    assert jsonable("x") == "x"
    assert jsonable(7) == 7
    assert jsonable(Fraction(4, 2)) == 2
    assert jsonable(Fraction(1, 3)) == "1/3"


def test_jsonable_cyclotomic():
    assert jsonable(zeta(4, 2)) == -1
    value = jsonable(zeta(3))
    assert value["conductor"] == 3
    assert value["terms"] == [[1, 1, 1]]
    mixed = jsonable(cyclotomic_sum([(Fraction(1, 2), [zeta(8)]), (1, [])]))
    assert mixed["conductor"] == 8
    assert [1, 1, 2] in mixed["terms"]


def test_jsonable_polynomials():
    q = QPolynomial.monomial(1, 1)
    one = QPolynomial.one()
    assert jsonable(q * q - one) == "q^2 - 1"
    # the quotient reduces to a polynomial and prints bare
    assert jsonable(QRationalFunction(q * q - one, q - one)) == "q + 1"
    assert jsonable(QRationalFunction(one, q - one)) == "(1) / (q - 1)"
    # the text form is the same str()
    values = {"sum": QRationalFunction(one, q - one), "a-value": q * q - one}
    assert render_text(values) == "sum: (1) / (q - 1)\na-value: q^2 - 1"


def test_jsonable_containers_and_rejection():
    data = jsonable({"a": [1, Fraction(1, 2)], "b": (2, 3)})
    assert data == {"a": [1, "1/2"], "b": [2, 3]}
    assert jsonable({1: "x"}) == {"1": "x"}
    with pytest.raises(TypeError):
        jsonable(object())


def test_jsonable_group_elements():
    p = Permutation.from_cycles(4, ((0, 1, 2),))
    assert jsonable(p) == "(0 1 2)"
    m = PrimeFieldMatrix(3, ((1, 0), (0, 1)))
    assert jsonable(m) == element_text(m)


def test_canonical_json_is_deterministic_and_sorted():
    payload = {"b": 1, "a": {"d": 2, "c": [3, 4]}}
    text = canonical_json(payload)
    assert text == canonical_json(payload)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == payload
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"c"') < text.index('"d"')


def test_cyclo_text():
    assert cyclo_text(zeta(4, 2)) == "-1"
    assert cyclo_text(zeta(3)) == "z3"
    assert cyclo_text(cyclotomic_sum([(2, [zeta(3)])])) == "2*z3"
    text = cyclo_text(cyclotomic_sum([(1, [zeta(5)]), (1, [zeta(5, 2)])]))
    assert "z5" in text and "z5^2" in text


def test_element_text():
    assert element_text(Permutation.identity(3)) == "()"
    assert element_text(Permutation.from_cycles(4, ((0, 1), (2, 3)))) == "(0 1)(2 3)"
    m = PrimeFieldMatrix(5, ((1, 2), (0, 3)))
    assert element_text(m) == "[1 2; 0 3] mod 5"


def test_fraction_text():
    assert fraction_text(Fraction(3, 1)) == "3"
    assert fraction_text(Fraction(-1, 2)) == "-1/2"


def test_render_text_shapes():
    # every branch for both dict keys and list items: scalar, scalar list, nested
    body = {
        "order": 120,
        "flags": [1, 2, 3],
        "nested": {"inner": "value", "empty": {}},
        "records": [{"x": 1}, [Fraction(1, 2), None], [[True]], "s"],
    }
    assert render_text(body).splitlines() == [
        "order: 120",
        "flags: [1, 2, 3]",
        "nested:",
        "  inner: value",
        "  empty: {}",
        "records:",
        "  -",
        "    x: 1",
        "  - [1/2, -]",
        "  -",
        "    - [true]",
        "  - s",
    ]
    assert render_text(7, 2) == "    7"
