"""Table and count invariants on randomly generated permutation and matrix groups.

Matrix groups are drawn on both sides of p**n = 257, so both matrix key forms
(vectors and entry rows) meet the same references."""

from __future__ import annotations

from contextlib import redirect_stdout
from io import StringIO
from itertools import combinations_with_replacement, product
from math import factorial

import pytest
from conftest import (
    FullScan,
    character_sum_reference,
    commutator_closure,
    fingerprint_reference,
    pair_scan_mismatch,
    positions,
    two_relation_violation,
    wrapped,
)

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from rigidity import cli
from rigidity.chartab import character_table, class_matrix_row, verify_orthogonality
from rigidity.conjugacy import conjugacy_classes
from rigidity.counting import count_equivalence, rigidity_verdict
from rigidity.elements import MatrixKind, Permutation, PrimeFieldMatrix, VectorKind
from rigidity.errors import CapExceededError
from rigidity.groups import closure_enumerate
from rigidity.murnaghan import murnaghan_nakayama

# the derived subgroup is checked against brute force up to this order
DERIVED_ORDER_CAP = 120
# the all-triples count grows as the cube of the class count, so matrix
# examples are kept to at most as many classes as Sym(6) has
MATRIX_ORDER_CAP = 150
MATRIX_CLASS_CAP = 11


@st.composite
def generator_sets(draw):
    """One or two random permutations of the same n ≤ 6 points, as image lists."""
    n = draw(st.integers(1, 6))
    return [draw(st.permutations(range(n))) for _ in range(draw(st.integers(1, 2)))]


# every invertible 2×2 matrix over F_p, as row-major entries
INVERTIBLE = {
    p: [m for m in product(range(p), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % p]
    for p in (2, 3, 5, 7)
}


@st.composite
def matrix_generator_sets(draw):
    """(p, flats): one or two random invertible 2×2 matrices over F_p, p ≤ 7."""
    p = draw(st.sampled_from(sorted(INVERTIBLE)))
    flat = st.sampled_from(INVERTIBLE[p])
    return p, [draw(flat) for _ in range(draw(st.integers(1, 2)))]


# the nonzero entries of the monomial generators below: the elements of
# order dividing 4 in F_17 and 6 in F_19
MONOMIAL_ENTRIES = {
    p: [x for x in range(1, p) if pow(x, k, p) == 1] for p, k in ((17, 4), (19, 6))
}


@st.composite
def entry_row_generator_sets(draw):
    """(p, flats): two 2×2 matrices over F_p, p ∈ {17, 19}.

    p**2 > 257, so these groups keep entry-row keys.  Random matrices over
    these fields almost always generate SL(2, p) or more, so the generators
    are a diagonal and an anti-diagonal matrix with entries from
    `MONOMIAL_ENTRIES`, both conjugated by one random invertible matrix.  The
    groups have order at most 72."""
    p = draw(st.sampled_from(sorted(MONOMIAL_ENTRIES)))
    entry = st.sampled_from(MONOMIAL_ENTRIES[p])
    c = PrimeFieldMatrix.from_flat(
        p, 2, draw(st.lists(st.integers(0, p - 1), min_size=4, max_size=4))
    )
    assume(c.determinant())
    a, b, x, y = (draw(entry) for _ in range(4))
    flats = []
    for m in ((a, 0, 0, b), (0, x, y, 0)):
        g = c.inverse() * PrimeFieldMatrix.from_flat(p, 2, m) * c
        flats.append([v for row in g.entries for v in row])
    return p, flats


def check_tables_and_counts(G, T):
    """The invariants every group must satisfy; returns the character table."""
    CT = character_table(G, T)
    assert verify_orthogonality(CT) is None
    assert two_relation_violation(CT) is None
    assert all(G.order % c.size == 0 for c in T.classes)
    # the class algebra is commutative, so row i of A_j is row j of A_i; for
    # classes of equal size the two calls scan different classes
    for i, j in combinations_with_replacement(range(T.num_classes), 2):
        assert class_matrix_row(T, G, j, i) == class_matrix_row(T, G, i, j), (i, j)
    assert count_equivalence(G, T, CT)[1] == []
    # the sums it stored, shared by class pair, against one sum per multiset
    for (ids, power), found in CT.character_sums.items():
        assert found == character_sum_reference(CT, ids, power), ids
    assert pair_scan_mismatch(G, T) is None
    # the scan's orbits partition the solutions, each is an orbit of G, and
    # they are the orbits the full scan finds without fixing x₁ = rep₁
    reference = FullScan(G, T)
    seeds = set()
    for ids in combinations_with_replacement(range(T.num_classes), 3):
        verdict = rigidity_verdict(G, T, CT, ids)
        assert sum(orbit.size for orbit in verdict.orbits) == verdict.count
        assert all(o.size * o.stabilizer_order == G.order for o in verdict.orbits)
        assert verdict.orbits == reference.decomposition(reference.solutions(ids)), ids
        seeds.update(o.representative[:2] for o in verdict.orbits)

    # the census fingerprints, against brute force on element objects; the
    # identity triple always has one orbit, so seeds is never empty
    for seed in sorted(seeds):
        assert G.fingerprint(seed) == fingerprint_reference(G, seed)

    # each stored generator's row and the class partition, against element arithmetic
    els, at = wrapped(G), positions(G)
    gens = [(els[g].inverse(), els[g]) for g in G.generator_indices]
    for g, (hi, h) in zip(G.generator_indices, gens):
        assert G.conjugation_row(g) == [at[hi * x * h] for x in els]
    orbits = set()
    for x in els:
        members, queue = {x}, [x]
        for y in queue:
            for hi, h in gens:
                z = hi * y * h
                if z not in members:
                    members.add(z)
                    queue.append(z)
        orbits.add(frozenset(at[y] for y in members))
    assert orbits == {frozenset(c.members) for c in T.classes}

    # the derived subgroup: the commutator closure, normal under the stored generators
    if G.order <= DERIVED_ORDER_CAP:
        derived = G.derived_subgroup()
        rows = [G.conjugation_row(g) for g in G.generator_indices]
        assert derived == commutator_closure(G) and all(
            row[h] in derived for row in rows for h in derived
        )
    return CT


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(generator_sets())
def test_random_permutation_group_tables_and_counts(generators):
    G = closure_enumerate([Permutation(images) for images in generators])
    T = conjugacy_classes(G)
    CT = check_tables_and_counts(G, T)
    if G.order == factorial(len(generators[0])):
        oracle = murnaghan_nakayama(T)
        assert oracle.group_order == CT.group_order
        assert oracle.class_sizes == CT.class_sizes
        assert oracle.class_orders == CT.class_orders
        assert oracle.rows == CT.rows


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(generator_sets(), st.data())
def test_random_permutation_group_rigid_output_is_deterministic(generators, data):
    # one class triple and one 4-class multiset, each run twice through the CLI
    perms = [Permutation(images) for images in generators]
    spec = f"Perm({perms[0].degree}; {', '.join(p.cycle_string() for p in perms)})"
    r = conjugacy_classes(closure_enumerate(perms)).num_classes
    # with 1 or 2 classes most draws repeat the same few tuples
    assume(r > 2)
    for size in (3, 4):
        ids = data.draw(st.lists(st.integers(0, r - 1), min_size=size, max_size=size))
        argv = ["rigid", spec, *(f"id:{i}" for i in ids), "--format", "structured"]
        outs = []
        for _ in range(2):
            with redirect_stdout(StringIO()) as out:
                assert cli.main(argv) == 0
            outs.append(out.getvalue())
        assert outs[0] == outs[1] and outs[0]


def check_matrix_group(generators, form):
    """Enumerate under the order cap, then check the invariants if the group
    is small enough; its keys must be of the given kind."""
    p, flats = generators
    try:
        G = closure_enumerate(
            [PrimeFieldMatrix.from_flat(p, 2, flat) for flat in flats], MATRIX_ORDER_CAP
        )
    except CapExceededError:
        assume(False)
    assert type(G.kind) is form
    T = conjugacy_classes(G)
    assume(T.num_classes <= MATRIX_CLASS_CAP)
    check_tables_and_counts(G, T)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(matrix_generator_sets())
def test_random_matrix_group_tables_and_counts(generators):
    # p ≤ 7: keyed by the action on vectors
    check_matrix_group(generators, VectorKind)


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(entry_row_generator_sets())
def test_random_entry_row_matrix_group_tables_and_counts(generators):
    check_matrix_group(generators, MatrixKind)
