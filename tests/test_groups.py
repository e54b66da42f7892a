"""Group enumeration: closure, builders, and the orthogonal-group scan."""

from __future__ import annotations

from itertools import product

import pytest
from conftest import (
    Q8,
    Q8_FLATS,
    SL23,
    SL27,
    centralizer,
    commutator_closure,
    group,
    positions,
    so3_by_candidate_scan,
    wrapped,
)

from rigidity import groups
from rigidity.conjugacy import conjugacy_classes
from rigidity.elements import Permutation, PrimeFieldMatrix
from rigidity.errors import (
    CapExceededError,
    IncompatibleGeneratorsError,
    SingularMatrixError,
    UnsupportedModulusError,
)
from rigidity.groups import (
    FiniteGroup,
    alt_group,
    closure_enumerate,
    cyc_group,
    dih_group,
    mat_group,
    omega3_group,
    orbit,
    orbit_partition,
    so3_enumerate,
    so3_group,
    sym_group,
)
from rigidity.groupspec import build_group


def test_builder_orders():
    assert [sym_group(n).order for n in range(1, 7)] == [1, 2, 6, 24, 120, 720]
    assert [alt_group(n).order for n in range(1, 7)] == [1, 1, 3, 12, 60, 360]
    assert [cyc_group(n).order for n in range(1, 9)] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert [dih_group(n).order for n in range(1, 9)] == [2, 4, 6, 8, 10, 12, 14, 16]


def test_identity_is_element_zero():
    for name in ("Sym(4)", "Alt(4)", Q8, "SO3(5)"):
        G = group(name)
        assert G.element(0).is_identity()
        assert G.identity_index == 0


def test_alt_elements_are_even():
    G = alt_group(4)
    for g in wrapped(G):
        # parity = (degree - number of cycles) mod 2, fixed points included
        seen = set()
        cycles = 0
        for start in range(g.degree):
            if start not in seen:
                cycles += 1
                x = start
                while x not in seen:
                    seen.add(x)
                    x = g.images[x]
        assert (g.degree - cycles) % 2 == 0


def test_mult_table_matches_element_arithmetic():
    G = group("Sym(4)")
    els = wrapped(G)
    for i in range(G.order):
        for j in range(G.order):
            assert els[G.mult(i, j)] == els[i] * els[j]


def test_inverse_table():
    G = group("Sym(4)")
    for i in range(G.order):
        assert G.mult(i, G.inverse(i)) == 0
        assert G.mult(G.inverse(i), i) == 0


@pytest.mark.parametrize("spec", ["Sym(5)", SL27, "SO3(5)"])
def test_inverse_matches_element_arithmetic(spec):
    # a fresh group: every answer is first computed, then read from the memo
    G = build_group(spec)
    els, at = wrapped(G), positions(G)
    for i in range(G.order):
        expected = at[els[i].inverse()]
        assert G.inverse(i) == G.inverse(i) == expected
        assert els[i] * els[expected] == els[0]


def test_class_sweep_inverts_only_representatives_and_generators():
    G = build_group("Sym(7)")
    T = conjugacy_classes(G)
    assert 0 < len(G._inverses) <= T.num_classes + len(G.generator_indices)


def test_conjugate_matches_element_arithmetic():
    # a fresh group, so the first answer of each conjugation fills the memo
    G = build_group(Q8)
    els = wrapped(G)
    for i in range(G.order):
        for g in range(G.order):
            expected = els[G.inverse(g)] * els[i] * els[g]
            # the second answer comes from the memo
            assert els[G.conjugate(i, g)] == expected
            assert els[G.conjugate(i, g)] == expected


def test_negative_indices_raise_and_memoize_nothing():
    # indices past the end too, on a cold memo and again with a row built
    bad = ((-1, 1), (0, -1), (99, 1), (0, 99))
    for warm in (False, True):
        G = build_group("Sym(3)")
        if warm:
            G.conjugate(0, 1)
        conjugates = dict(G._conjugates)
        for method in (G.conjugate, G.mult):
            for i, j in bad:
                index = i if not 0 <= i < G.order else j
                with pytest.raises(IndexError, match=rf"element index {index} outside 0\.\.5"):
                    method(i, j)
        assert G._conjugates == conjugates
    assert conjugates.keys() == {1}


@pytest.mark.parametrize(
    "spec",
    [
        "Sym(5)",
        "Alt(6)",
        "Mat(7, 2; [1 1 0 1], [0 6 1 0])",
        Q8,
        "Perm(6; (0 2), (0 2 3 5 4 1))",
        "SO3(5)",
    ],
)
def test_generator_conjugation_rows_match_element_arithmetic(spec):
    G = build_group(spec)
    els, at = wrapped(G), positions(G)

    def check(conjugators):
        for g in conjugators:
            inv = els[g].inverse()
            for x in range(G.order):
                expected = at[inv * els[x] * els[g]]
                # the second answer comes from the memo
                assert G.conjugate(x, g) == G.conjugate(x, g) == expected

    # an enumerated group keeps its R rows until every stored
    # generator has its row; SO3(5) is wrapped from a closed element list
    assert (G._right_rows is None) == (spec == "SO3(5)")
    for g in G.generator_indices:
        G.conjugate(0, g)
        # the first conjugation builds the generator's whole row
        assert -1 not in G._conjugates[g]
        assert G.conjugation_row(g) is G._conjugates[g]
    assert G._right_rows is None
    # other conjugators' rows fill entry by entry, through `conjugate` only
    with pytest.raises(ValueError, match="not a stored generator"):
        G.conjugation_row(next(x for x in range(G.order) if x not in G.generator_indices))
    check(G.generator_indices)
    T = conjugacy_classes(G)
    check({g for c in T.classes for g in G.centralizer_generators(c.representative)})


def test_element_order_matches_naive_powers():
    G = group("Sym(4)")
    for i in range(G.order):
        x = G.element(i)
        power = x
        k = 1
        while not power.is_identity():
            power = power * x
            k += 1
        assert G.element_order(i) == k


def test_element_order_divides_group_order():
    for name in ("Sym(5)", Q8, "SO3(5)"):
        G = group(name)
        for i in range(G.order):
            assert G.order % G.element_order(i) == 0


def test_centralizer_sizes():
    G = group("Sym(4)")
    four_cycle = next(i for i in range(G.order) if G.element_order(i) == 4)
    assert len(centralizer(G, four_cycle)) == 4
    assert len(centralizer(G, 0)) == G.order


def test_centralizer_generators_generate_the_centralizer():
    for name in ("Sym(5)", Q8, "Alt(5)", "Dih(2)", "Cyc(6)"):
        G = group(name)
        for i in range(G.order):
            gens = G.centralizer_generators(i)
            assert G.subgroup_generated(gens) == centralizer(G, i), (name, i)
            assert G.centralizer_generators(i) is gens


def test_closure_cap():
    gens = [
        Permutation.from_cycles(5, [(0, 1)]),
        Permutation.from_cycles(5, [(0, 1, 2, 3, 4)]),
    ]
    with pytest.raises(CapExceededError):
        closure_enumerate(gens, cap=50)
    # at the boundary, for both element kinds: Sym(5) and SL(2,3)
    sl23 = [PrimeFieldMatrix.from_flat(3, 2, flat) for flat in ((1, 1, 0, 1), (0, 2, 1, 0))]
    for gens, order in ((gens, 120), (sl23, 24)):
        assert closure_enumerate(gens, cap=order).order == order
        message = f"closure exceeded the cap of {order - 1} elements"
        with pytest.raises(CapExceededError, match=message):
            closure_enumerate(gens, cap=order - 1)


def test_named_builder_caps_trip_fast():
    with pytest.raises(CapExceededError):
        sym_group(50)
    with pytest.raises(CapExceededError):
        sym_group(10**12)
    with pytest.raises(CapExceededError):
        alt_group(10**9)
    with pytest.raises(CapExceededError):
        cyc_group(3_000_000)


def test_closure_requires_generators_and_compatibility():
    with pytest.raises(ValueError):
        closure_enumerate([])
    with pytest.raises(IncompatibleGeneratorsError):
        closure_enumerate([Permutation.identity(3), Permutation.identity(4)])
    with pytest.raises(SingularMatrixError):
        closure_enumerate([PrimeFieldMatrix(3, ((1, 2), (2, 1)))])


def test_bfs_enumeration_is_deterministic():
    a = sym_group(4)
    b = sym_group(4)
    assert [g.encode() for g in wrapped(a)] == [g.encode() for g in wrapped(b)]
    assert a.generator_indices == b.generator_indices


def test_from_closed_elements_roundtrip():
    G = group("Sym(4)")
    rebuilt = FiniteGroup.from_closed_elements(G.kind, list(G.elements))
    assert rebuilt.order == G.order
    assert [g.encode() for g in wrapped(rebuilt)] == [g.encode() for g in wrapped(G)]


def test_from_closed_elements_rejects_bad_input():
    G = group("Sym(3)")
    with pytest.raises(ValueError, match="not closed under multiplication"):
        FiniteGroup.from_closed_elements(G.kind, list(G.elements)[:-1])
    with pytest.raises(ValueError, match="element 0 must be the identity"):
        FiniteGroup.from_closed_elements(G.kind, list(G.elements)[1:])
    with pytest.raises(ValueError, match="empty element list"):
        FiniteGroup.from_closed_elements(G.kind, [])
    with pytest.raises(ValueError, match="duplicate elements in group table"):
        FiniteGroup.from_closed_elements(G.kind, list(G.elements) + [G.elements[1]])


def test_subgroup_generated_satisfies_lagrange():
    G = group("Sym(4)")
    for i in range(G.order):
        sub = G.subgroup_generated([i])
        assert G.order % len(sub) == 0
        assert len(sub) == G.element_order(i)


def test_subgroup_materialization():
    G = group("Sym(4)")
    transposition = next(
        i
        for i in range(G.order)
        if G.element_order(i) == 2 and len(centralizer(G, i)) == 4
    )
    sub = G.subgroup(G.subgroup_generated([transposition]))
    assert sub.order == 2
    with pytest.raises(ValueError):
        G.subgroup({1, 2})
    with pytest.raises(IndexError):
        G.subgroup_generated([G.order])


def test_orbit_partition_splits_ascending_points():
    # orbits of x -> x + 3 on Z/12, from every point and from one orbit alone
    def step(x, g):
        return (x + g) % 12

    assert orbit(5, [3], step) == {2, 5, 8, 11}
    whole = list(orbit_partition(range(12), [3], step))
    assert [least for least, _ in whole] == [0, 1, 2]
    assert [sorted(members) for _, members in whole] == [
        [0, 3, 6, 9],
        [1, 4, 7, 10],
        [2, 5, 8, 11],
    ]
    assert [least for least, _ in orbit_partition([1, 4, 7, 10], [3], step)] == [1]


def test_fingerprint_inside_parent_matches_materialized_subgroup():
    for name in ("Sym(4)", Q8, "SO3(5)"):
        G = group(name)
        for seed in ([1], [1, 2], [2, G.order - 1], [0]):
            materialized = G.subgroup(G.subgroup_generated(seed)).fingerprint()
            assert G.fingerprint(seed) == materialized
        assert G.fingerprint(G.generator_indices) == G.fingerprint()


def test_derived_subgroups():
    assert len(sym_group(3).derived_subgroup()) == 3
    assert len(sym_group(4).derived_subgroup()) == 12
    assert len(sym_group(5).derived_subgroup()) == 60
    assert len(cyc_group(6).derived_subgroup()) == 1
    assert len(dih_group(4).derived_subgroup()) == 2
    # perfect group: derived subgroup is everything
    assert len(alt_group(5).derived_subgroup()) == 60
    assert len(sym_group(7).derived_subgroup()) == 2520


@pytest.mark.parametrize(
    "spec",
    [
        "Sym(4)",
        "Sym(5)",
        "Alt(5)",
        "Dih(4)",
        "Cyc(6)",
        Q8,
        SL23,
        "Perm(5; (0 2), (0 2 3 4 1))",
    ],
)
def test_derived_subgroup_is_the_commutator_closure(spec):
    G = group(spec)
    assert G.derived_subgroup() == commutator_closure(G)


def test_subgroup_generated_from_a_redundant_seed():
    # a whole class, or every element, against a two-element generating seed
    G = group("Sym(5)")
    classes = {
        (G.element_order(c.representative), c.size): c.members
        for c in conjugacy_classes(G).classes
    }
    whole = G.subgroup_generated(G.generator_indices)
    assert whole == set(range(G.order))
    assert G.subgroup_generated(range(G.order)) == whole
    assert G.subgroup_generated(classes[2, 10]) == whole
    # the 3-cycles generate Alt(5), as do (0 1 2) and (0 1 2 3 4)
    alt5 = G.subgroup_generated(
        G.index[Permutation.from_cycles(5, [cycle]).key]
        for cycle in ((0, 1, 2), (0, 1, 2, 3, 4))
    )
    assert len(alt5) == 60
    assert G.subgroup_generated(classes[3, 20]) == alt5


def test_derived_subgroup_is_normal():
    G = group("Sym(4)")
    derived = G.derived_subgroup()
    for h in derived:
        for g in range(G.order):
            assert G.conjugate(h, g) in derived


def test_so3_small_moduli():
    assert so3_group(3).order == 24
    assert so3_group(5).order == 120
    assert so3_group(7).order == 336
    with pytest.raises(UnsupportedModulusError):
        so3_enumerate(11)
    with pytest.raises(UnsupportedModulusError):
        so3_enumerate(4)


def test_so3_matches_naive_scan_mod3():
    p = 3
    naive = []
    for flat in product(range(p), repeat=9):
        m = [flat[0:3], flat[3:6], flat[6:9]]
        gram_ok = all(
            sum(m[i][k] * m[j][k] for k in range(3)) % p == (1 if i == j else 0)
            for i in range(3)
            for j in range(3)
        )
        if not gram_ok:
            continue
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        ) % p
        if det == 1:
            naive.append(flat)
    G = group("SO3(3)")
    ours = [tuple(x for row in g.entries for x in row) for g in wrapped(G)]
    identity_flat = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    naive.remove(identity_flat)
    assert ours == [identity_flat] + naive


def test_so3_matches_naive_scan_mod5():
    np = pytest.importorskip("numpy")
    p = 5
    count = p**9
    rem = np.arange(count, dtype=np.int64)
    digits = np.empty((count, 9), dtype=np.int16)
    for k in range(8, -1, -1):
        digits[:, k] = rem % p
        rem //= p
    m = digits.reshape(count, 3, 3)
    gram = np.einsum("nij,nkj->nik", m, m) % p
    eye = np.eye(3, dtype=np.int16)
    orthogonal = (gram == eye).all(axis=(1, 2))
    det = (
        m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
        - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
        + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0])
    ) % p
    keep = orthogonal & (det == 1)
    naive = [tuple(int(x) for x in row) for row in digits[keep]]
    G = group("SO3(5)")
    ours = [tuple(x for row in g.entries for x in row) for g in wrapped(G)]
    identity_flat = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    naive.remove(identity_flat)
    assert ours == [identity_flat] + naive


@pytest.mark.parametrize("p", (3, 5, 7))
def test_so3_by_cross_product_matches_the_candidate_scan(p):
    """One cross product per orthonormal row pair gives the scan's elements,
    in the scan's order, with its generators; so does the derived subgroup."""
    reference = so3_by_candidate_scan(p)
    G = so3_enumerate(p)
    assert G.elements == reference.elements
    assert G.generator_indices == reference.generator_indices
    omega = omega3_group(p)
    omega_reference = reference.subgroup(reference.derived_subgroup())
    assert omega.elements == omega_reference.elements
    assert omega.generator_indices == omega_reference.generator_indices


def test_shadow_fingerprints():
    assert group("SO3(5)").fingerprint() == group("Sym(5)").fingerprint()
    assert group("Omega3(5)").fingerprint() == group("Alt(5)").fingerprint()
    assert omega3_group(3).fingerprint() == alt_group(4).fingerprint()


def test_omega3_orders():
    assert omega3_group(3).order == 12
    assert group("Omega3(5)").order == 60


def test_q8_fingerprint():
    assert group(Q8).fingerprint() == (
        8,
        (1, 1, 2, 2, 2),
        ((1, 1), (2, 1), (4, 6)),
    )


def test_mat_group_validation():
    with pytest.raises(ValueError):
        mat_group(4, 2, [(1, 0, 0, 1)])
    with pytest.raises(ValueError):
        mat_group(1 << 17, 2, [(1, 0, 0, 1)])
    with pytest.raises(ValueError):
        mat_group(3, 0, [()])
    assert mat_group(3, 2, Q8_FLATS).order == 8


def test_mat_group_refuses_a_large_modulus_before_testing_primality(monkeypatch):
    # trial division of the prime 2^61 − 1 would run about 1.5·10^9 steps
    def unreachable(n):
        raise AssertionError(f"primality of {n} tested")

    monkeypatch.setattr(groups, "_prime_factors", unreachable)
    with pytest.raises(ValueError, match="too large"):
        mat_group((1 << 61) - 1, 1, [(1,)])


def test_builder_rejects_nonpositive_parameters():
    for builder in (sym_group, alt_group, cyc_group, dih_group):
        with pytest.raises(ValueError):
            builder(0)
