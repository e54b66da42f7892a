"""Symmetric-group character tables by rim-hook recursion.

An independent oracle for the eigenvalue pipeline: values are computed purely
combinatorially, one partition pair at a time, with no group enumeration and
no modular arithmetic.  The recursion removes the first part t of the cycle
type as a rim hook from the shape: working with the beta-set
{λ_i + (m−1−i)}, a removable t-hook is an element b with b−t ≥ 0 absent from
the set, the replacement b ↦ b−t removes it, and the hook's leg length is the
number of set elements strictly between b−t and b.

Columns are keyed by cycle type; use align_to_class_table to reorder them to
match an enumerated group's class convention before comparing tables.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .chartab import Character, CharacterTable
from .conjugacy import ClassTable
from .cyclotomic import Cyclotomic
from .elements import Permutation


def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as descending tuples, in reverse lexicographic order."""

    def rec(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return list(rec(n, n))


def cycle_type(perm: Permutation) -> tuple[int, ...]:
    """Cycle lengths including fixed points, sorted descending."""
    seen = set()
    lengths = []
    for start in range(perm.degree):
        if start in seen:
            continue
        length = 1
        seen.add(start)
        x = perm.images[start]
        while x != start:
            seen.add(x)
            x = perm.images[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def class_size_of_type(mu: tuple[int, ...]) -> int:
    """Number of permutations with cycle type mu."""
    n = sum(mu)
    z = 1
    counts: dict[int, int] = {}
    for part in mu:
        counts[part] = counts.get(part, 0) + 1
    for length, count in counts.items():
        z *= length**count * factorial(count)
    return factorial(n) // z


def _partition_from_beta(beta_desc: list[int]) -> tuple[int, ...]:
    m = len(beta_desc)
    parts = [b - (m - 1 - i) for i, b in enumerate(beta_desc)]
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


@lru_cache(maxsize=None)
def mn_value(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Character value of the shape lam at the cycle type mu."""
    if not mu:
        return 1 if not lam else 0
    if not lam:
        return 0
    t, rest = mu[0], mu[1:]
    m = len(lam)
    beta = sorted(lam[i] + (m - 1 - i) for i in range(m))
    bset = set(beta)
    total = 0
    for b in beta:
        if b - t < 0 or b - t in bset:
            continue
        height = sum(1 for b2 in beta if b - t < b2 < b)
        new_beta = sorted((bset - {b}) | {b - t}, reverse=True)
        total += (-1) ** height * mn_value(_partition_from_beta(new_beta), rest)
    return total


def murnaghan_nakayama(n: int) -> CharacterTable:
    """Character table of the symmetric group on n points, n ≤ 7."""
    if not 1 <= n <= 7:
        raise ValueError(f"supported range is 1 ≤ n ≤ 7, got {n}")
    types = partitions(n)
    sizes = {mu: class_size_of_type(mu) for mu in types}
    orders = {mu: lcm(*mu) for mu in types}
    columns = sorted(types, key=lambda mu: (orders[mu], sizes[mu], mu))
    rows = []
    for lam in partitions(n):
        values = tuple(
            Cyclotomic.from_rational(mn_value(lam, mu)) for mu in columns
        )
        degree = mn_value(lam, (1,) * n)
        rows.append(Character(degree=degree, values=values))
    rows.sort(key=Character.sort_key)
    return CharacterTable(
        group_order=factorial(n),
        class_sizes=tuple(sizes[mu] for mu in columns),
        class_orders=tuple(orders[mu] for mu in columns),
        rows=tuple(rows),
        class_cycle_types=tuple(columns),
    )


def align_to_class_table(oracle: CharacterTable, T: ClassTable) -> CharacterTable:
    """Reorder oracle columns to T's class order, matching by cycle type."""
    if oracle.class_cycle_types is None:
        raise ValueError("table carries no cycle-type keys")
    G = T.group
    column_of = {mu: i for i, mu in enumerate(oracle.class_cycle_types)}
    perm_order = []
    for c in T.classes:
        rep = G.elements[c.representative]
        if not isinstance(rep, Permutation):
            raise ValueError("alignment target is not a permutation group")
        mu = cycle_type(rep)
        if mu not in column_of:
            raise ValueError(f"no oracle column for cycle type {mu}")
        perm_order.append(column_of[mu])
    rows = []
    for row in oracle.rows:
        rows.append(
            Character(
                degree=row.degree,
                values=tuple(row.values[i] for i in perm_order),
            )
        )
    rows.sort(key=Character.sort_key)
    return CharacterTable(
        group_order=oracle.group_order,
        class_sizes=tuple(oracle.class_sizes[i] for i in perm_order),
        class_orders=tuple(oracle.class_orders[i] for i in perm_order),
        rows=tuple(rows),
        class_cycle_types=tuple(oracle.class_cycle_types[i] for i in perm_order),
    )
