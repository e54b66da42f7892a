"""Combinatorial character values for symmetric groups."""

from __future__ import annotations

from math import factorial

import pytest

from conftest import SL23, charactered, classed
from rigidity.chartab import Character
from rigidity.conjugacy import conjugacy_classes
from rigidity.cyclotomic import Cyclotomic
from rigidity.elements import Permutation
from rigidity.groups import closure_enumerate
from rigidity.murnaghan import (
    class_size_of_type,
    cycle_type,
    mn_value,
    murnaghan_nakayama,
    partitions,
)


def hook_length_degree(lam: tuple[int, ...]) -> int:
    """Independent degree oracle: n! over the product of hook lengths."""
    n = sum(lam)
    product = 1
    for i, row in enumerate(lam):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for r in lam[i + 1 :] if r > j)
            product *= arm + leg + 1
    return factorial(n) // product


def test_partition_counts():
    assert [len(partitions(n)) for n in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]


def test_partition_order_is_reverse_lexicographic():
    for n in range(1, 8):
        parts = partitions(n)
        assert parts[0] == (n,)
        assert parts[-1] == (1,) * n
        assert parts == sorted(parts, reverse=True)
        assert all(sum(p) == n for p in parts)


def test_cycle_type_examples():
    assert cycle_type(Permutation.identity(4)) == (1, 1, 1, 1)
    assert cycle_type(Permutation.from_cycles(5, ((0, 1, 2),))) == (3, 1, 1)
    assert cycle_type(Permutation.from_cycles(4, ((0, 1), (2, 3)))) == (2, 2)


def test_class_sizes():
    assert class_size_of_type((1, 1, 1)) == 1
    assert class_size_of_type((2, 1)) == 3
    assert class_size_of_type((3,)) == 2
    assert class_size_of_type((2, 2)) == 3
    assert class_size_of_type((5,)) == 24
    for n in range(1, 8):
        assert sum(class_size_of_type(mu) for mu in partitions(n)) == factorial(n)


def test_spot_values():
    assert mn_value((2, 1), (3,)) == -1
    assert mn_value((2, 1), (1, 1, 1)) == 2
    assert mn_value((2, 1), (2, 1)) == 0
    # one-row shape is the all-ones character
    for n in range(1, 7):
        for mu in partitions(n):
            assert mn_value((n,), mu) == 1
    # one-column shape alternates with parity
    for n in range(1, 7):
        for mu in partitions(n):
            transpositions = sum(part - 1 for part in mu)
            assert mn_value((1,) * n, mu) == (-1) ** transpositions


def test_degrees_match_hook_lengths():
    for n in range(1, 7):
        for lam in partitions(n):
            assert mn_value(lam, (1,) * n) == hook_length_degree(lam)


def test_column_orthogonality():
    for n in range(2, 7):
        for mu in partitions(n):
            total = sum(mn_value(lam, mu) ** 2 for lam in partitions(n))
            assert total * class_size_of_type(mu) == factorial(n)


@pytest.mark.parametrize(
    "spec",
    ["Perm(6; (0 2), (0 2 3 5 4 1))", "Perm(5; (1 3), (4 0 2 1 3))"],
)
def test_oracle_matches_eigenvalue_route_on_relabelled_generators(spec):
    # class representatives here differ from those of Sym(n)
    G, T, CT = charactered(spec)
    oracle = murnaghan_nakayama(T)
    assert G.order == factorial(G.element(0).degree)
    assert oracle.group_order == CT.group_order
    assert oracle.class_sizes == CT.class_sizes
    assert oracle.class_orders == CT.class_orders
    assert oracle.rows == CT.rows


def test_table_shape_and_keys():
    G, T = classed("Sym(5)")
    ct = murnaghan_nakayama(T)
    assert ct.group_order == 120
    assert len(ct.rows) == 7
    assert sum(ct.class_sizes) == 120
    # column k is keyed by the cycle type of class k's representative
    types = [cycle_type(G.element(c.representative)) for c in T.classes]
    assert ct.class_sizes == tuple(c.size for c in T.classes)
    assert ct.class_sizes == tuple(map(class_size_of_type, types))
    assert ct.class_orders == tuple(T.element_order_of_class)
    assert ct.rows == tuple(sorted(ct.rows, key=Character.sort_key))
    for chi in ct.rows:
        assert chi.values[types.index((1,) * 5)] == chi.degree
    expected = {
        tuple(Cyclotomic.from_rational(mn_value(lam, mu)) for mu in types)
        for lam in partitions(5)
    }
    assert {chi.values for chi in ct.rows} == expected


def test_range_limit():
    with pytest.raises(ValueError, match="got 8"):
        murnaghan_nakayama(classed("Cyc(8)")[1])
    empty = closure_enumerate([Permutation(())])
    with pytest.raises(ValueError, match="got 0"):
        murnaghan_nakayama(conjugacy_classes(empty))
    with pytest.raises(ValueError, match="not a permutation group"):
        murnaghan_nakayama(classed(SL23)[1])
    with pytest.raises(ValueError, match=r"a group of order 60 is not Sym\(5\)"):
        murnaghan_nakayama(classed("Alt(5)")[1])
