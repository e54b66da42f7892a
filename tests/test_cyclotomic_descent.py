"""The canonical form by the relative trace and by coordinates, against
descent by elimination only."""

from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import canonical_reference

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from rigidity.cyclotomic import Cyclotomic

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
