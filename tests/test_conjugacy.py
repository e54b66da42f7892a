"""Conjugacy class extraction and class-level maps."""

from __future__ import annotations

from conftest import Q8, classed
from rigidity.conjugacy import (
    classes_of_element_order,
    conjugacy_classes,
    power_classes,
    power_map,
)


def test_classes_partition_the_group():
    for name in ("Sym(4)", "Alt(5)", Q8, "Dih(4)", "SO3(5)"):
        G, T = classed(name)
        seen = []
        for cls in T.classes:
            assert cls.size == len(cls.members)
            assert list(cls.members) == sorted(cls.members)
            assert cls.representative == cls.members[0]
            seen.extend(cls.members)
        assert sorted(seen) == list(range(G.order))
        assert sum(cls.size for cls in T.classes) == G.order


def test_identity_class_comes_first():
    for name in ("Sym(4)", "Alt(5)", Q8):
        G, T = classed(name)
        assert T.classes[0].members == (G.identity_index,)
        assert T.class_of[G.identity_index] == 0


def test_sort_key_is_order_then_size_then_representative():
    for name in ("Sym(5)", "Alt(5)", "Dih(4)"):
        _, T = classed(name)
        keys = [
            (T.element_order_of_class[c.id], c.size, c.representative)
            for c in T.classes
        ]
        assert keys == sorted(keys)
        assert [c.id for c in T.classes] == list(range(T.num_classes))


def test_centralizer_order_times_size():
    for name in ("Sym(5)", Q8, "SO3(5)", "Cyc(6)"):
        G, T = classed(name)
        for cls in T.classes:
            assert cls.size * cls.centralizer_order == G.order


def test_class_membership_is_conjugation_invariant():
    G, T = classed("Sym(4)")
    for x in range(G.order):
        for g in range(G.order):
            assert T.class_of[G.conjugate(x, g)] == T.class_of[x]


def test_inverse_class_map():
    for name in ("Sym(4)", "Alt(5)", Q8, "Cyc(6)"):
        G, T = classed(name)
        for cls in T.classes:
            j = T.inverse_class[cls.id]
            assert T.inverse_class[j] == cls.id
            for x in cls.members:
                assert T.class_of[G.inverse(x)] == j


def test_symmetric_groups_are_ambivalent():
    # every element of Sym(n) is conjugate to its inverse
    for name in ("Sym(3)", "Sym(4)", "Sym(5)", "Sym(6)"):
        _, T = classed(name)
        assert list(T.inverse_class) == list(range(T.num_classes))


def test_cyclic_group_pairs_inverse_classes():
    _, T = classed("Cyc(6)")
    # generator and its inverse sit in distinct singleton classes
    assert T.num_classes == 6
    assert T.inverse_class[T.class_of[1]] == T.class_of[5]


def test_element_orders_match_members():
    for name in ("Sym(5)", "Alt(4)", "SO3(5)"):
        G, T = classed(name)
        for cls in T.classes:
            orders = {G.element_order(x) for x in cls.members}
            assert orders == {T.element_order_of_class[cls.id]}


def test_power_map_identity_and_squares():
    G, T = classed("Sym(4)")
    assert list(power_map(T, 1)) == list(range(T.num_classes))
    squares = power_map(T, 2)
    for cls in T.classes:
        x = cls.representative
        assert T.class_of[G.mult(x, x)] == squares[cls.id]
    # squaring a 4-cycle lands in the double-transposition class
    four = classes_of_element_order(T, 4)[0]
    assert T.element_order_of_class[squares[four]] == 2
    assert T.classes[squares[four]].size == 3


def test_power_map_agrees_with_element_powers():
    G, T = classed("Alt(5)")
    for k in range(13):
        pm = power_map(T, k)
        for cls in T.classes:
            x = cls.representative
            y = G.identity_index
            for _ in range(k):
                y = G.mult(y, x)
            assert T.class_of[y] == pm[cls.id]


def test_classes_of_element_order():
    _, T = classed("Sym(5)")
    sizes = sorted(T.classes[i].size for i in classes_of_element_order(T, 2))
    assert sizes == [10, 15]
    assert classes_of_element_order(T, 7) == []
    assert classes_of_element_order(T, 1) == [0]


def test_class_tables_are_deterministic():
    G, _ = classed("Alt(5)")
    a = conjugacy_classes(G)
    b = conjugacy_classes(G)
    assert [c.members for c in a.classes] == [c.members for c in b.classes]
    assert list(a.class_of) == list(b.class_of)


def test_known_class_counts():
    expected = {
        "Sym(3)": 3,
        "Sym(4)": 5,
        "Sym(5)": 7,
        "Sym(6)": 11,
        "Alt(4)": 4,
        "Alt(5)": 5,
        Q8: 5,
        "Dih(4)": 5,
        "SO3(5)": 7,
        "Omega3(5)": 5,
    }
    for name, count in expected.items():
        _, T = classed(name)
        assert T.num_classes == count, name


def test_power_map_negative_exponent_inverts():
    _, T = classed("Alt(5)")
    assert list(power_map(T, -1)) == list(T.inverse_class)


def test_power_classes_list_each_cycle():
    _, T = classed("Sym(5)")
    for cls, pcs in zip(T.classes, power_classes(T)):
        assert len(pcs) == T.element_order_of_class[cls.id]
        assert pcs[0] == 0
        assert pcs[1 % len(pcs)] == cls.id
    for k in (-1, 0, 2, 7):
        assert power_map(T, k) == tuple(pcs[k % len(pcs)] for pcs in power_classes(T))
