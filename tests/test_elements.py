"""Permutation and prime-field matrix behavior."""

from __future__ import annotations

import random
from itertools import permutations, product
from operator import mul

import pytest
from conftest import (
    compose_images,
    determinant_entries,
    invert_entries,
    invert_images,
    multiply_entries,
)

from rigidity.chartab import _kernel_mod, _restriction
from rigidity.elements import (
    MatrixKind,
    Permutation,
    PrimeFieldMatrix,
    VectorKind,
    group_keys,
    matrix_kind,
    permutation_kind,
    row_reduce,
    vector_kind,
)
from rigidity.errors import (
    IncompatibleGeneratorsError,
    SingularMatrixError,
)


def all_perms(n: int) -> list[Permutation]:
    return [Permutation(images) for images in permutations(range(n))]


def test_identity_and_validation():
    e = Permutation.identity(4)
    assert e.is_identity()
    assert e.degree == 4
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((1, 2, 3))


def test_composition_is_function_composition():
    for p in all_perms(4):
        for q in all_perms(4):
            r = p * q
            assert all(r.images[x] == p.images[q.images[x]] for x in range(4))


def test_group_axioms_sym3():
    elems = all_perms(3)
    e = Permutation.identity(3)
    for a in elems:
        assert a * e == a
        assert e * a == a
        assert a * a.inverse() == e
        assert a.inverse() * a == e
        for b in elems:
            for c in elems:
                assert (a * b) * c == a * (b * c)


def test_from_cycles_right_to_left():
    # (0 1) applied after (1 2): 0 -> 0 -> 1, 1 -> 2, 2 -> 1 -> 0
    p = Permutation.from_cycles(3, [(0, 1), (1, 2)])
    assert tuple(p.images) == (1, 2, 0)
    assert Permutation.from_cycles(5, [()]).is_identity()
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(0, 0)])
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(0, 5)])


def test_cycle_string():
    assert Permutation.identity(5).cycle_string() == "()"
    p = Permutation.from_cycles(6, [(0, 1), (2, 3, 4)])
    assert p.cycle_string() == "(0 1)(2 3 4)"


def test_cycles_start_at_least_points_and_keep_fixed_points():
    assert Permutation.identity(3).cycles() == [(0,), (1,), (2,)]
    p = Permutation.from_cycles(6, [(0, 1), (4, 2, 3)])
    assert p.cycles() == [(0, 1), (2, 3, 4), (5,)]
    assert p.cycle_string() == "(0 1)(2 3 4)"
    for q in all_perms(4):
        cycles = q.cycles()
        assert sorted(x for cycle in cycles for x in cycle) == [0, 1, 2, 3]
        for cycle in cycles:
            assert cycle[0] == min(cycle)
            assert all(q.images[x] == cycle[(i + 1) % len(cycle)] for i, x in enumerate(cycle))


def test_degree_mismatch_raises():
    with pytest.raises(IncompatibleGeneratorsError):
        Permutation.identity(3) * Permutation.identity(4)
    assert not Permutation.identity(3).compatible_with(Permutation.identity(4))
    assert not Permutation.identity(3).compatible_with(PrimeFieldMatrix.identity(3, 3))


def test_encode_orders_like_image_tuples():
    elems = all_perms(4)
    assert sorted(elems, key=lambda p: p.encode()) == sorted(
        elems, key=lambda p: p.images
    )
    assert len({p.encode() for p in elems}) == len(elems)


def test_encode_width_switches_past_byte_degrees():
    assert len(Permutation.identity(10).encode()) == 1 + 4 + 10
    assert len(Permutation.identity(300).encode()) == 1 + 4 + 2 * 300


def test_encode_fits_images_past_two_bytes_and_dimensions_past_one():
    # images up to 69999 need 3 bytes
    a = Permutation.from_cycles(70000, [(0, 69999)])
    b = Permutation.from_cycles(70000, [(0, 65536)])
    assert len(a.encode()) == 1 + 4 + 3 * 70000
    assert sorted([a, b], key=lambda p: p.encode()) == sorted([a, b], key=lambda p: p.images)
    assert len(PrimeFieldMatrix.identity(2, 256).encode()) == 1 + 2 + 2 + 256 * 256


def invertible_mats_mod3() -> list[PrimeFieldMatrix]:
    mats = []
    for flat in product(range(3), repeat=4):
        m = PrimeFieldMatrix.from_flat(3, 2, flat)
        if m.determinant() != 0:
            mats.append(m)
    return mats


def test_gl2_f3_has_48_elements():
    assert len(invertible_mats_mod3()) == 48


def test_matrix_inverse_roundtrip():
    e = PrimeFieldMatrix.identity(3, 2)
    for m in invertible_mats_mod3():
        assert m * m.inverse() == e
        assert m.inverse() * m == e


def test_determinant_is_multiplicative():
    mats = invertible_mats_mod3()[:16]
    for a in mats:
        for b in mats:
            assert (a * b).determinant() == a.determinant() * b.determinant() % 3


def test_singular_matrix():
    s = PrimeFieldMatrix(3, ((1, 2), (2, 1)))
    assert s.determinant() == 0
    with pytest.raises(SingularMatrixError):
        s.inverse()


def test_matrix_mult_and_entry_reduction():
    a = PrimeFieldMatrix(5, ((1, 2), (3, 4)))
    b = PrimeFieldMatrix(5, ((0, 1), (1, 0)))
    assert (a * b).entries == ((2, 1), (4, 3))
    assert PrimeFieldMatrix(5, ((-1, 6), (10, 7))).entries == ((4, 1), (0, 2))


def test_matrix_shape_and_modulus_mismatch():
    with pytest.raises(IncompatibleGeneratorsError):
        PrimeFieldMatrix.identity(3, 2) * PrimeFieldMatrix.identity(5, 2)
    with pytest.raises(IncompatibleGeneratorsError):
        PrimeFieldMatrix.identity(3, 2) * PrimeFieldMatrix.identity(3, 3)
    with pytest.raises(ValueError):
        PrimeFieldMatrix(3, ((1, 2),))
    with pytest.raises(ValueError):
        PrimeFieldMatrix.from_flat(3, 2, (1, 0, 0))


def test_matrix_encode_orders_like_row_major_entries():
    mats = [PrimeFieldMatrix.from_flat(3, 2, f) for f in product(range(3), repeat=4)]
    assert sorted(mats, key=lambda m: m.encode()) == sorted(
        mats, key=lambda m: m.entries
    )


def test_hash_consistency():
    a = Permutation((1, 0, 2))
    b = Permutation.from_cycles(3, [(0, 1)])
    assert a == b and hash(a) == hash(b)
    m1 = PrimeFieldMatrix(5, ((6, 0), (0, 1)))
    m2 = PrimeFieldMatrix(5, ((1, 0), (0, 1)))
    assert m1 == m2 and hash(m1) == hash(m2)


def test_unchecked_permutation_products_equal_validated_ones():
    # images are bytes up to degree 256 and a tuple past it
    rng = random.Random(7)
    for n in (*range(1, 9), 255, 256, 257):
        assert type(Permutation.identity(n).images) is (bytes if n <= 256 else tuple)
        for _ in range(25):
            a = Permutation(rng.sample(range(n), n))
            b = Permutation(rng.sample(range(n), n))
            for got, images in (
                (a * b, [a.images[b.images[x]] for x in range(n)]),
                (a.inverse(), [a.images.index(x) for x in range(n)]),
            ):
                want = Permutation(images)
                assert got == want and hash(got) == hash(want)
                assert list(got.images) == images and got.degree == want.degree == n
                assert got.encode() == want.encode()
            assert (a * a.inverse()).is_identity() and (a.inverse() * a).is_identity()
            assert a.is_identity() == (a == Permutation.identity(n))


def test_unchecked_matrix_products_equal_validated_ones():
    rng = random.Random(11)
    for k in range(200):
        p, n = (5, 7)[k % 2], (2, 3)[k // 2 % 2]
        a, b = (
            PrimeFieldMatrix(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
            for _ in range(2)
        )
        # unreduced entries, reduced by the validating constructor
        naive = [[sum(a.entries[i][t] * b.entries[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        got, want = a * b, PrimeFieldMatrix(p, naive)
        assert got == want and hash(got) == hash(want)
        assert got.entries == want.entries and (got.p, got.n) == (p, n)
        if a.determinant():
            inv = a.inverse()
            want = PrimeFieldMatrix(p, inv.entries)
            assert inv == want and hash(inv) == hash(want) and (inv.p, inv.n) == (p, n)
            assert (a * inv).is_identity() and (inv * a).is_identity()
        assert a.is_identity() == (a == PrimeFieldMatrix.identity(p, n))


def test_permutation_kind_matches_image_list_arithmetic():
    # keys are bytes up to degree 256 and a tuple past it
    rng = random.Random(26)
    for n in (*range(1, 9), 255, 256, 257):
        kind = permutation_kind(n)
        form = bytes if n <= 256 else tuple
        assert type(kind.identity) is form and list(kind.identity) == list(range(n))
        for _ in range(20):
            a, b = rng.sample(range(n), n), rng.sample(range(n), n)
            ka, kb = form(a), form(b)
            product, inverse = kind.mul(ka, kb), kind.inverse(ka)
            assert type(product) is form and list(product) == compose_images(a, b)
            assert type(inverse) is form and list(inverse) == invert_images(a)
            assert kind.mul(ka, kind.identity) == ka == kind.mul(kind.identity, ka)
            element = kind.wrap(product)
            assert type(element) is Permutation and element.degree == n
            assert list(element.images) == compose_images(a, b)


def test_matrix_kind_matches_entry_list_arithmetic():
    rng = random.Random(26)
    for p in (2, 3, 5, 7, 11, 13):
        for n in (2, 3):
            kind = matrix_kind(p, n)
            assert kind.identity == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            for _ in range(15):
                a, b = ([[rng.randrange(p) for _ in range(n)] for _ in range(n)] for _ in range(2))
                ka, kb = (tuple(map(tuple, m)) for m in (a, b))
                ab = kind.mul(ka, kb)
                assert ab == tuple(map(tuple, multiply_entries(a, b, p)))
                assert kind.mul(ka, kind.identity) == ka == kind.mul(kind.identity, ka)
                if determinant_entries(a, p):
                    assert kind.inverse(ka) == tuple(map(tuple, invert_entries(a, p)))
                else:
                    with pytest.raises(SingularMatrixError):
                        kind.inverse(ka)
                element = kind.wrap(ab)
                assert type(element) is PrimeFieldMatrix and (element.p, element.n) == (p, n)
                assert element.entries == ab
    # vector keys, up to p**n = 257: against the action on the nonzero vectors
    # and against object arithmetic on entry rows
    for p, n in ((2, 2), (3, 2), (5, 2), (7, 2), (11, 2), (13, 2), (2, 3), (3, 3), (5, 3), (2, 8), (257, 1)):
        kind = vector_kind(p, n)
        vectors = list(product(range(p), repeat=n))[1:]
        position = {v: i for i, v in enumerate(vectors)}

        def action(m):
            return [position[tuple(sum(map(mul, row, v)) % p for row in m.entries)] for v in vectors]

        identity = PrimeFieldMatrix.identity(p, n)
        assert kind.identity == kind.key(identity) == bytes(range(p**n - 1))
        assert kind.wrap(kind.identity) == identity
        for _ in range(15):
            a, b = (random_invertible(rng, p, n) for _ in range(2))
            ka, kb = kind.key(a), kind.key(b)
            assert type(ka) is bytes and list(ka) == action(a)
            assert kind.mul(ka, kb) == kind.key(a * b)
            assert kind.inverse(ka) == kind.key(a.inverse())
            assert kind.mul(ka, kind.identity) == ka == kind.mul(kind.identity, ka)
            for m in (a, a * b):
                element = kind.wrap(kind.key(m))
                assert type(element) is PrimeFieldMatrix and (element.p, element.n) == (p, n)
                assert element == m and element.entries == m.entries
    # a group's key form is chosen from p**n alone
    for p, n, form in ((257, 1, VectorKind), (2, 8, VectorKind), (17, 2, MatrixKind), (7, 3, MatrixKind)):
        kind, keys = group_keys([PrimeFieldMatrix.identity(p, n)])
        assert type(kind) is form and keys == [kind.identity]


def random_invertible(rng, p: int, n: int) -> PrimeFieldMatrix:
    while True:
        m = PrimeFieldMatrix(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        if m.determinant():
            return m


def test_products_of_products_still_check_degree_and_modulus():
    c = Permutation.from_cycles(4, [(0, 1, 2)])
    with pytest.raises(IncompatibleGeneratorsError):
        (c * c).inverse() * Permutation.identity(5)
    m = PrimeFieldMatrix(5, ((1, 1), (0, 1)))
    with pytest.raises(IncompatibleGeneratorsError):
        (m * m).inverse() * PrimeFieldMatrix(7, ((1, 1), (0, 1)))
    with pytest.raises(IncompatibleGeneratorsError):
        (m * m) * PrimeFieldMatrix.identity(5, 3)
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError, match="not square"):
        PrimeFieldMatrix(5, ((1, 2), (3,)))
    assert PrimeFieldMatrix(5, ((6, 0), (0, 11))).is_identity()


def square_matrices_mod_p():
    """Every 2x2 matrix mod 3, then seeded-random 3x3 matrices mod 5 and mod 7."""
    for flat in product(range(3), repeat=4):
        yield 3, (flat[:2], flat[2:])
    for p in (5, 7):
        rng = random.Random(p)
        for _ in range(100):
            yield p, tuple(tuple(rng.randrange(p) for _ in range(3)) for _ in range(3))


def test_row_reduce_rank_kernel_and_inverse():
    ranks = set()
    for p, rows in square_matrices_mod_p():
        n = len(rows)
        reduced, pivots = row_reduce(rows, n, p)
        for i, col in enumerate(pivots):
            assert [row[col] for row in reduced] == [int(r == i) for r in range(n)]
        kernel = _kernel_mod(rows, p)
        assert len(pivots) + len(kernel) == n
        for vec in kernel:
            assert all(sum(a * x for a, x in zip(row, vec)) % p == 0 for row in rows)
        m = PrimeFieldMatrix(p, rows)
        if len(pivots) == n:
            e = PrimeFieldMatrix.identity(p, n)
            assert m * m.inverse() == e
            assert m.inverse() * m == e
        else:
            with pytest.raises(SingularMatrixError, match=f"matrix is singular mod {p}"):
                m.inverse()
        ranks.add((n, len(pivots)))
    assert ranks == {(2, 0), (2, 1), (2, 2), (3, 2), (3, 3)}


def test_row_reduce_leaves_its_input_and_extra_columns_alone():
    rows = [[0, 2, 1, 4], [3, 1, 0, 2]]
    reduced, pivots = row_reduce(rows, 2, 5)
    assert rows == [[0, 2, 1, 4], [3, 1, 0, 2]]
    assert pivots == [0, 1]
    # the right-hand sides become x with [[0 2], [3 1]] x = [[1 4], [0 2]] mod 5
    assert reduced == [[1, 0, 4, 0], [0, 1, 3, 2]]


def test_coordinates_recover_combinations():
    # a Krylov space span{v, Av, A²v, …} is A-invariant; the restriction read
    # from the rows of A at its pivots alone recombines to every image A·b
    rng = random.Random(0)
    shapes = set()
    for p, rows in square_matrices_mod_p():
        n = len(rows)
        krylov = [tuple(rng.randrange(p) for _ in range(n))]
        for _ in range(n - 1):
            krylov.append(tuple(sum(a * x for a, x in zip(row, krylov[-1])) % p for row in rows))
        reduced, pivots = row_reduce(krylov, n, p)
        if not pivots:
            continue
        basis = reduced[: len(pivots)]
        M = _restriction((basis, pivots), {i: rows[i] for i in pivots}, p)
        for t, b in enumerate(basis):
            image = [sum(a * x for a, x in zip(row, b)) % p for row in rows]
            combination = [
                sum(M[s][t] * v[k] for s, v in enumerate(basis)) % p for k in range(n)
            ]
            assert image == combination
        shapes.add((n, len(pivots)))
    assert {(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)} <= shapes
