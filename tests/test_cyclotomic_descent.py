"""The canonical form by the relative trace and by coordinates, against
descent by elimination only; the integer trace on int coordinates."""

from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import canonical_reference, descend_by_elimination

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from rigidity import cyclotomic
from rigidity.cyclotomic import Cyclotomic, _descend_by_trace, _power_basis, _prime_factors

COEFFICIENTS = st.one_of(
    st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)
)


def exponent_maps(e: int):
    """(e, d, mapping): every exponent of mapping is a multiple of d, a divisor
    of e, so the value lies in Q(ζ_{e/d}).  A random map at a large e rarely
    lands in a proper subfield; d > 1 puts it in one."""
    divisors = [d for d in range(1, e + 1) if e % d == 0]
    return st.tuples(
        st.just(e),
        st.one_of(st.just(1), st.sampled_from(divisors)),
        # exponents past e and below 0 are read mod e
        st.dictionaries(st.integers(-e, 2 * e), COEFFICIENTS, min_size=1, max_size=4),
    ).map(lambda c: (c[0], c[1], {k * c[1]: v for k, v in c[2].items()}))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 120).flatmap(exponent_maps))
def test_canonical_form_matches_elimination_only_descent(case):
    e, d, mapping = case
    value = Cyclotomic.from_exponent_map(e, mapping)
    reference = canonical_reference(e, mapping)
    assert value.conductor == reference.conductor
    assert value.coeffs == reference.coeffs
    assert value.sort_key() == reference.sort_key()
    assert value.conductor % 4 != 2
    assert (e // d) % value.conductor == 0
    assert all(type(c) is Fraction for c in value.coeffs.values())


def _matches_reference(e, mapping):
    value = Cyclotomic.from_exponent_map(e, mapping)
    reference = canonical_reference(e, mapping)
    assert (value.conductor, value.coeffs) == (reference.conductor, reference.coeffs)
    assert all(type(c) is Fraction for c in value.coeffs.values())
    return value


def _once_primes(e):
    return [p for p in _prime_factors(e) if (e // p) % p]


@pytest.mark.parametrize(
    "e, mapping",
    [(7, {1: 1}), (15, {1: 1, 2: 1}), (21, {1: 1, 2: 1}), (35, {1: 1})],
    ids=["zeta7", "zeta15+zeta15^2", "zeta21+zeta21^2", "zeta35"],
)
def test_integral_value_outside_every_subfield(monkeypatch, e, mapping):
    # an algebraic integer that lies in no Q(ζ_{e/p}): for each p the integer
    # trace is not a multiple of p − 1, so it stops before the lift back, after
    # one reduction mod Φ_{e/p}
    vec = _power_basis(mapping.items(), e)
    assert all(type(c) is int for c in vec)
    reductions = []
    monkeypatch.setattr(
        cyclotomic, "_power_basis", lambda terms, m: reductions.append(m) or _power_basis(terms, m)
    )
    for p in _once_primes(e):
        reductions.clear()
        assert _descend_by_trace(e, vec, p) is None
        assert reductions == [e // p]
        assert descend_by_elimination(e, list(vec), p) is None
    monkeypatch.undo()
    assert _matches_reference(e, mapping).conductor == e


@pytest.mark.parametrize(
    "e, mapping",
    [
        (15, {1: 1, 2: Fraction(1, 2)}),
        (15, {0: 2, 5: Fraction(3), 10: 1}),
        (14, {2: Fraction(-1, 3), 4: 1, 7: 2}),
        (30, {6: 1, 12: Fraction(2, 5), 3: 0}),
        (12, {0: Fraction(1, 2), 6: 1, 4: -1}),
    ],
)
def test_mixed_int_and_fraction_coefficients(e, mapping):
    # scaled to ints by the least common denominator, then divided back
    _matches_reference(e, mapping)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@example((15, 3, {1: 1}))
@example((15, 5, {1: 2, 2: -1}))
# e = 14: for p = 2, p − 1 = 1 divides every trace
@example((14, 1, {1: 1, 3: 4}))
@example((21, 7, {1: 1}))
@example((30, 2, {1: 1, 6: 1}))
@given(
    st.integers(2, 120).flatmap(
        lambda e: st.tuples(
            st.just(e),
            st.sampled_from([1, *_prime_factors(e)]),
            st.dictionaries(st.integers(0, e - 1), st.integers(-3, 3), min_size=1, max_size=4),
        )
    )
)
def test_integer_trace_matches_elimination(case):
    # int coordinates; for d > 1 the value is built inside Q(ζ_{e/d})
    e, d, mapping = case
    vec = _power_basis(((k * d, c) for k, c in mapping.items()), e)
    for p in _once_primes(e):
        w = _descend_by_trace(e, vec, p)
        reference = descend_by_elimination(e, list(vec), p)
        assert w == (None if reference is None else tuple(reference))
        assert w is None or all(type(c) is int for c in w)
