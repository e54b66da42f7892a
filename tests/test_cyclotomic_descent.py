"""The canonical form by coordinates, against descent by elimination only."""

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


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    st.integers(1, 60).flatmap(
        lambda e: st.tuples(
            st.just(e),
            # exponents past e and below 0 are read mod e
            st.dictionaries(st.integers(-e, 2 * e), COEFFICIENTS, min_size=1, max_size=4),
        )
    )
)
def test_canonical_form_matches_elimination_only_descent(case):
    e, mapping = case
    value = Cyclotomic.from_exponent_map(e, mapping)
    reference = canonical_reference(e, mapping)
    assert value.conductor == reference.conductor
    assert value.coeffs == reference.coeffs
    assert value.sort_key() == reference.sort_key()
    assert value.conductor % 4 != 2
    assert all(type(c) is Fraction for c in value.coeffs.values())
