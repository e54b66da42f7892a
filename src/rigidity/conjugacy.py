"""Conjugacy classes of an enumerated group.

Classes are the orbits (`groups.orbit_partition`) under conjugation by the
stored generators only; that suffices because the generators generate, and it
costs O(|G| · #generators) conjugations instead of O(|G|²).  Each step reads
one entry of a generator's whole conjugation row
(`FiniteGroup.conjugation_row`); for an enumerated group that row is built
from the enumeration tree by list lookups, with one key inverse and no
product.  The inverse class map takes one key inverse per class.

The class ordering convention is fixed project-wide: sort by (element order,
class size, least member index).  The identity class therefore always gets
id 0, and equal runs produce identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup, orbit_partition


@dataclass(frozen=True)
class ConjugacyClass:
    """One conjugacy class; members are sorted ascending."""

    id: int
    representative: int
    members: tuple[int, ...]
    size: int
    centralizer_order: int


@dataclass(frozen=True)
class ClassTable:
    """All classes of a group plus the maps the counting layer needs."""

    group: FiniteGroup
    classes: tuple[ConjugacyClass, ...]
    class_of: tuple[int, ...]
    inverse_class: tuple[int, ...]
    element_order_of_class: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def conjugacy_classes(G: FiniteGroup) -> ClassTable:
    """Partition G into conjugacy classes, sorted by the fixed convention."""
    n = G.order
    keyed = sorted(
        (G.element_order(least), len(members), least, tuple(sorted(members)))
        for least, members in orbit_partition(
            range(n),
            [G.conjugation_row(g) for g in G.generator_indices],
            lambda x, row: row[x],
        )
    )
    classes = []
    class_of = [0] * n
    for cid, (order, size, rep, members) in enumerate(keyed):
        for m in members:
            class_of[m] = cid
        classes.append(
            ConjugacyClass(
                id=cid,
                representative=rep,
                members=members,
                size=size,
                centralizer_order=n // size,
            )
        )
    inverse_class = tuple(
        class_of[G.inverse(c.representative)] for c in classes
    )
    element_orders = tuple(order for order, *_ in keyed)
    return ClassTable(
        group=G,
        classes=tuple(classes),
        class_of=tuple(class_of),
        inverse_class=inverse_class,
        element_order_of_class=element_orders,
    )


def power_classes(T: ClassTable) -> tuple[tuple[int, ...], ...]:
    """Per class id, the class ids of c⁰, c¹, …, c^{o−1}, o the element order."""
    G = T.group
    mul, index = G.kind.mul, G.index
    result = []
    for c in T.classes:
        x = G.elements[c.representative]
        acc = G.elements[0]
        pcs = []
        for _ in range(T.element_order_of_class[c.id]):
            pcs.append(T.class_of[index[acc]])
            acc = mul(acc, x)
        result.append(tuple(pcs))
    return tuple(result)


def power_map(T: ClassTable, k: int) -> tuple[int, ...]:
    """Class id of g^k per class id; well-defined on classes."""
    return tuple(pcs[k % len(pcs)] for pcs in power_classes(T))


def classes_of_element_order(T: ClassTable, m: int) -> list[int]:
    """Ids of all classes whose elements have order exactly m, in table order."""
    return [c.id for c in T.classes if T.element_order_of_class[c.id] == m]
