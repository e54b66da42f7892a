"""Shared test helpers: one group pipeline cache keyed by spec text, the
cyclotomic reference sum and tampered character tables."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import lcm

from rigidity.audit import Pipelines
from rigidity.chartab import Character
from rigidity.cyclotomic import Cyclotomic

# quaternion group of order 8 as 2x2 matrices over F_3
Q8_FLATS = ((0, 2, 1, 0), (1, 1, 1, 2))
Q8 = "Mat(3, 2; [0 2 1 0], [1 1 1 2])"
SL23 = "Mat(3, 2; [1 1 0 1], [0 2 1 0])"
SL27 = "Mat(7, 2; [1 1 0 1], [0 6 1 0])"

_PIPELINES = Pipelines()
group = _PIPELINES.group
classed = _PIPELINES.classes
charactered = _PIPELINES.characters


def cyclotomic_sum(terms) -> Cyclotomic:
    """Σ weight·∏ factors over (weight, factors) pairs, in canonical form.

    weight is rational and factors a sequence of Cyclotomic values (empty for
    the product 1).  Each product is convolved as an exponent map at the lcm
    L of all the conductors, and the sum is reduced once by
    `Cyclotomic.from_exponent_map`, so this reference shares no code with
    `multiply_mod`.
    """
    terms = [(Fraction(weight), tuple(factors)) for weight, factors in terms]
    L = lcm(1, *(f.conductor for _, factors in terms for f in factors))
    total: dict[int, Fraction] = {}
    for weight, factors in terms:
        product = {0: weight}
        for f in factors:
            step = L // f.conductor
            convolved: dict[int, Fraction] = {}
            for k1, c1 in product.items():
                for k2, c2 in f.coeffs.items():
                    k = (k1 + k2 * step) % L
                    convolved[k] = convolved.get(k, 0) + c1 * c2
            product = convolved
        for k, c in product.items():
            total[k] = total.get(k, 0) + c
    return Cyclotomic.from_exponent_map(L, total)


def tampered(CT, delta):
    """CT with delta (a Cyclotomic or a rational) added to the last value of its last row."""
    if not isinstance(delta, Cyclotomic):
        delta = Cyclotomic.from_rational(delta)
    chi = CT.rows[-1]
    values = chi.values[:-1] + (cyclotomic_sum([(1, [chi.values[-1]]), (1, [delta])]),)
    return replace(CT, rows=CT.rows[:-1] + (Character(degree=chi.degree, values=values),))
