"""Symmetric-group character tables by rim-hook recursion.

An independent oracle for the eigenvalue pipeline: values are computed purely
combinatorially, one partition pair at a time, with no group arithmetic and
no modular arithmetic.  The recursion removes the first part t of the cycle
type as a rim hook from the shape: working with the beta-set
{λ_i + (m−1−i)}, a removable t-hook is an element b with b−t ≥ 0 absent from
the set, the replacement b ↦ b−t removes it, and the hook's leg length is the
number of set elements strictly between b−t and b.

`murnaghan_nakayama` takes the class table of an enumerated Sym(n) and reads
only the cycle type of each class representative: column k is keyed by class
k's, so the result compares entry by entry with `character_table`.
"""

from __future__ import annotations

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
    return tuple(sorted(map(len, perm.cycles()), reverse=True))


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


def murnaghan_nakayama(T: ClassTable) -> CharacterTable:
    """Character table of Sym(n), n ≤ 7, in the class order of its class table T."""
    G = T.group
    reps = [G.element(c.representative) for c in T.classes]
    if not all(isinstance(rep, Permutation) for rep in reps):
        raise ValueError("not a permutation group; the oracle needs a class table of Sym(n)")
    n = reps[0].degree
    if not 1 <= n <= 7:
        raise ValueError(f"supported range is 1 ≤ n ≤ 7, got {n}")
    if G.order != factorial(n):
        raise ValueError(f"a group of order {G.order} is not Sym({n})")
    columns = [cycle_type(rep) for rep in reps]
    rows = [
        Character(
            degree=mn_value(lam, (1,) * n),
            values=tuple(Cyclotomic.from_rational(mn_value(lam, mu)) for mu in columns),
        )
        for lam in partitions(n)
    ]
    rows.sort(key=Character.sort_key)
    return CharacterTable(
        group_order=factorial(n),
        class_sizes=tuple(map(class_size_of_type, columns)),
        class_orders=tuple(lcm(*mu) for mu in columns),
        rows=tuple(rows),
    )
