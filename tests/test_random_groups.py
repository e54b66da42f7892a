"""Table and count invariants on randomly generated permutation groups."""

from __future__ import annotations

from math import factorial

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from rigidity.chartab import character_table, verify_orthogonality
from rigidity.conjugacy import conjugacy_classes
from rigidity.counting import count_equivalence
from rigidity.elements import Permutation
from rigidity.groups import closure_enumerate
from rigidity.murnaghan import murnaghan_nakayama


@st.composite
def generator_sets(draw):
    """One or two random permutations of the same n ≤ 6 points, as image lists."""
    n = draw(st.integers(1, 6))
    return [draw(st.permutations(range(n))) for _ in range(draw(st.integers(1, 2)))]


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(generator_sets())
def test_random_permutation_group_tables_and_counts(generators):
    G = closure_enumerate([Permutation(images) for images in generators])
    T = conjugacy_classes(G)
    CT = character_table(G, T)
    assert verify_orthogonality(CT) is None
    assert all(G.order % c.size == 0 for c in T.classes)
    assert count_equivalence(G, T, CT)[1] == []
    if G.order == factorial(len(generators[0])):
        oracle = murnaghan_nakayama(T)
        assert oracle.group_order == CT.group_order
        assert oracle.class_sizes == CT.class_sizes
        assert oracle.class_orders == CT.class_orders
        assert oracle.rows == CT.rows
