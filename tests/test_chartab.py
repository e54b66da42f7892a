"""Character tables from class-matrix eigenspaces."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from conftest import (
    Q8,
    SL23,
    SL27,
    charactered,
    class_matrices,
    classed,
    cyclotomic_sum,
    integer_table,
    tampered,
    two_relation_violation,
)
from rigidity import chartab, cli
from rigidity.chartab import (
    _charpoly_mod,
    character_table,
    class_matrix_row,
    dixon_prime,
    verify_orthogonality,
)
from rigidity.cyclotomic import Cyclotomic, euler_phi, zeta
from rigidity.elements import PrimeFieldMatrix
from rigidity.errors import SplitFailureError, VerificationError
from rigidity.murnaghan import murnaghan_nakayama

ALL_NAMES = (
    "Sym(2)",
    "Sym(3)",
    "Sym(4)",
    "Sym(5)",
    "Sym(6)",
    "Alt(4)",
    "Alt(5)",
    "Dih(4)",
    "Cyc(6)",
    Q8,
    "SO3(5)",
    "Omega3(5)",
)


def test_class_matrix_row_sums():
    # summing a_{jik}·|C_k| over k counts all of C_j × C_i
    G, T = classed("Sym(4)")
    for mat in class_matrices(T, G):
        for i, row in enumerate(mat.entries):
            total = sum(a * T.classes[k].size for k, a in enumerate(row))
            assert total == T.classes[mat.j].size * T.classes[i].size


def test_class_matrices_of_chosen_ids():
    G, T = classed("Sym(4)")
    every = class_matrices(T, G)
    assert [M.j for M in every] == list(range(T.num_classes))
    assert class_matrices(T, G, (3, 1)) == [every[3], every[1]]


def test_identity_class_matrix_is_identity():
    for name in ("Sym(3)", "Sym(4)", Q8):
        G, T = classed(name)
        mat = class_matrices(T, G)[0]
        for i, row in enumerate(mat.entries):
            assert all(a == (1 if k == i else 0) for k, a in enumerate(row))


def test_scaled_rows_are_simultaneous_eigenvectors():
    for name in ("Sym(4)", Q8):
        G, T, CT = charactered(name)
        mats = class_matrices(T, G)
        for chi in CT.rows:
            omega = [
                cyclotomic_sum([(Fraction(T.classes[k].size, chi.degree), [chi.values[k]])])
                for k in range(T.num_classes)
            ]
            for mat in mats:
                for i, row in enumerate(mat.entries):
                    lhs = cyclotomic_sum((a, [omega[k]]) for k, a in enumerate(row))
                    assert lhs == cyclotomic_sum([(1, [omega[mat.j], omega[i]])])


def test_orthogonality_and_degree_sums():
    from rigidity.conjugacy import conjugacy_classes
    from rigidity.groups import cyc_group, dih_group

    # SL(2,3) and SL(2,7) have irrational values (conductors 3 and 56)
    groups = [charactered(name)[::2] for name in ALL_NAMES + (SL23, SL27)]
    for n in range(1, 13):
        G = cyc_group(n)
        groups.append((G, character_table(G, conjugacy_classes(G))))
    for n in range(1, 9):
        G = dih_group(n)
        groups.append((G, character_table(G, conjugacy_classes(G))))
    for G, CT in groups:
        violation = verify_orthogonality(CT)
        assert violation is None, violation
        assert two_relation_violation(CT) is None
        assert sum(chi.degree ** 2 for chi in CT.rows) == G.order
        assert integer_table(CT)[1] == 1


def test_first_row_is_trivial_character():
    for name in ALL_NAMES:
        _, T, CT = charactered(name)
        assert all(v == 1 for v in CT.rows[0].values)
        for chi in CT.rows:
            assert chi.values[0] == chi.degree


def test_tampered_table_fails_orthogonality():
    cases = [("Sym(3)", 1, 1)]
    cases += [
        (name, delta, denominator)
        for name in ("Alt(5)", SL27)
        for delta, denominator in ((zeta(5), 1), (Fraction(1, 2), 2))
    ]
    for name, delta, denominator in cases:
        CT = charactered(name)[2]
        middle = CT.num_classes // 2
        # the last value, a value in a middle row and one in a middle column
        for row, column in ((-1, -1), (middle, -1), (-1, middle)):
            bad = tampered(CT, delta, row, column)
            assert integer_table(bad)[1] == denominator
            violation = verify_orthogonality(bad)
            assert violation, (name, delta, row, column)
            assert "orthogonality fails for" in violation
            # the column relation alone rejects what both relations reject
            assert two_relation_violation(bad) is not None


def test_negated_degree_fails_off_the_diagonal():
    # χ(1) ↦ −χ(1) keeps every column's norm, so only a pair of two
    # different columns can show it
    for name in ("Sym(3)", "Alt(5)", SL27):
        CT = charactered(name)[2]
        bad = tampered(CT, -2 * CT.rows[-1].degree, column=0)
        violation = verify_orthogonality(bad)
        assert violation is not None and violation.startswith(
            "column orthogonality fails for classes 0, "
        )
        assert violation != "column orthogonality fails for classes 0, 0"
        assert two_relation_violation(bad) is not None


def test_table_missing_a_row_fails_squareness():
    for name in ("Sym(3)", "Alt(5)", SL27):
        CT = charactered(name)[2]
        short = replace(CT, rows=CT.rows[:-1])
        r = CT.num_classes
        assert verify_orthogonality(short) == (
            f"orthogonality fails for a table of {r - 1} rows on {r} classes"
        )
        assert two_relation_violation(short) is not None


def test_columns_are_the_whole_table_lift_at_each_conductor():
    # SL(2,7): columns at conductors 1, 7 and 8, the table at 56
    CT = replace(charactered(SL27)[2])
    e, D, columns = integer_table(CT)
    assert CT.conductors == (1, 1, 1, 1, 1, 7, 7, 8, 8, 7, 7)
    assert lcm(*CT.conductors) == e == 56
    for k, conductor in enumerate(CT.conductors):
        assert CT.column(k, e) == (D, tuple(columns[k]))
        # at the column's own conductor, coordinates that rebuild each value
        own_D, vectors = CT.column(k, conductor)
        assert own_D == 1
        for row, v in zip(CT.rows, vectors):
            assert len(v) == euler_phi(conductor)
            assert Cyclotomic.from_exponent_map(conductor, dict(enumerate(v))) == row.values[k]
        # a conductor that is not a multiple of the column's raises, and stores nothing
        if conductor > 1:
            with pytest.raises(ValueError, match="not a multiple"):
                CT.column(k, conductor + 1)
            assert (k, conductor + 1) not in CT.columns
    assert replace(CT).columns == {}


def test_dixon_prime_selection():
    assert dixon_prime(3, 3) == 7
    assert dixon_prime(60, 120) == 61
    assert dixon_prime(1, 1) == 3
    assert dixon_prime(12, 24) == 13
    assert dixon_prime(4, 8) == 13


def test_dixon_prime_properties():
    for e, n in ((2, 4), (6, 60), (12, 120), (30, 360), (60, 2520)):
        p = dixon_prime(e, n)
        assert p % e == 1
        assert p * p > 4 * n
        assert all(p % d for d in range(2, p)) or p == 2
        # nothing smaller qualifies
        for q in range(3, p):
            if q % e != 1 or q * q <= 4 * n:
                continue
            assert any(q % d == 0 for d in range(2, q))


def test_matches_combinatorial_oracle_exactly():
    from conftest import group

    for n in range(3, 7):
        G = group(f"Sym({n})")
        _, T, CT = charactered(f"Sym({n})")
        oracle = murnaghan_nakayama(T)
        assert oracle.class_sizes == CT.class_sizes
        assert oracle.class_orders == CT.class_orders
        assert oracle.rows == CT.rows
        assert G.order == CT.group_order


def test_table_is_deterministic():
    G, T = classed("Alt(5)")
    a = character_table(G, T)
    b = character_table(G, T)
    assert a.rows == b.rows


def test_known_degree_sequences():
    expected = {
        "Sym(5)": [1, 1, 4, 4, 5, 5, 6],
        "Alt(5)": [1, 3, 3, 4, 5],
        Q8: [1, 1, 1, 1, 2],
        "Alt(4)": [1, 1, 1, 3],
        "Dih(4)": [1, 1, 1, 1, 2],
    }
    for name, degrees in expected.items():
        _, _, CT = charactered(name)
        assert sorted(chi.degree for chi in CT.rows) == degrees


def test_rotation_group_table_matches_its_shadow():
    _, _, CT5 = charactered("SO3(5)")
    _, _, CTS = charactered("Sym(5)")
    assert sorted(chi.degree for chi in CT5.rows) == sorted(
        chi.degree for chi in CTS.rows
    )
    lhs = sorted(tuple(v.sort_key() for v in chi.values) for chi in CT5.rows)
    rhs = sorted(tuple(v.sort_key() for v in chi.values) for chi in CTS.rows)
    assert lhs == rhs


@pytest.mark.parametrize("p", (7, 13, 337))
def test_characteristic_polynomial_matches_determinants(p):
    rng = random.Random(p)
    mats = [
        [[rng.randrange(p) for _ in range(m)] for _ in range(m)]
        for m in range(1, 7)
        for _ in range(3)
    ]
    # block triangular: Hessenberg reduction meets a column that is zero
    # below the diagonal and skips it
    mats.append([[1, 2, 3, 4], [5, 6, 7, 8], [0, 0, 2, 3], [0, 0, 4, 5]])
    # zero on the subdiagonal but not below it: rows and columns swap
    mats.append([[1, 2, 3], [0, 4, 5], [6, 7, 8]])
    mats.append([[3 if i == j else 0 for j in range(5)] for i in range(5)])
    for M in mats:
        poly = _charpoly_mod(M, p)
        assert len(poly) == len(M) + 1 and poly[-1] == 1
        for lam in range(p):
            shifted = PrimeFieldMatrix(
                p, [[(lam if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(M)]
            )
            value = sum(c * pow(lam, d, p) for d, c in enumerate(poly)) % p
            assert value == shifted.determinant()


def _count_builds(monkeypatch):
    """Record the (j, i) of every class-matrix row built and every kernel computed."""
    built, kernels = [], []
    count, kernel = chartab.class_matrix_row, chartab._kernel_mod

    def counted(T, G, j, i):
        built.append((j, i))
        return count(T, G, j, i)

    def recorded(matrix, p):
        kernels.append(kernel(matrix, p))
        return kernels[-1]

    monkeypatch.setattr(chartab, "class_matrix_row", counted)
    monkeypatch.setattr(chartab, "_kernel_mod", recorded)
    return built, kernels


@pytest.mark.parametrize(
    "spec, needed",
    [("Sym(6)", 2), ("Sym(7)", 1), ("Alt(7)", 7), ("Mat(7, 2; [1 1 0 1], [0 6 1 0])", 7)],
)
def test_split_builds_only_the_class_matrices_it_reaches(monkeypatch, spec, needed):
    G, T = classed(spec)
    built, kernels = _count_builds(monkeypatch)
    character_table(G, T)
    r = T.num_classes
    # the split reaches classes 1, 2, … in order, each row counted at most once
    assert list(dict.fromkeys(j for j, _ in built)) == list(range(1, needed + 1))
    assert len(built) == len(set(built))
    # A_1 splits the whole space, so all its rows are read; later matrices
    # are read only at the pivots of the spaces that are not yet lines
    assert [i for j, i in built if j == 1] == list(range(r))
    assert needed == 1 or len(built) < needed * r
    # one kernel per eigenspace: no row reduction at a λ that is no root
    assert all(kernels)


@pytest.mark.parametrize("spec", ("Sym(6)", "Alt(7)", SL27, "SO3(7)", Q8))
def test_class_matrix_rows_match_class_matrices(spec):
    G, T = classed(spec)
    for M in class_matrices(T, G):
        for i, row in enumerate(M.entries):
            assert class_matrix_row(T, G, M.j, i) == row


def _tamper_row(monkeypatch, j, i, k):
    """Make chartab count row i of A_j with entry k raised by 1."""

    def tampered_row(T, G, jj, ii):
        row = class_matrix_row(T, G, jj, ii)
        return row if (jj, ii) != (j, i) else row[:k] + (row[k] + 1,) + row[k + 1 :]

    monkeypatch.setattr(chartab, "class_matrix_row", tampered_row)


@pytest.mark.parametrize(
    "spec, j, i, k, cause",
    [
        ("Alt(7)", 2, 0, 1, "eigenvector vanishes at the identity class"),
        ("Sym(6)", 2, 0, 1, "no integer degree matches"),
        ("Sym(6)", 2, 0, 9, "degree squares do not sum to the group order"),
        (SL27, 1, 1, 1, "matrix not diagonalizable over this prime"),
    ],
)
def test_tampered_row_ends_in_a_typed_error(monkeypatch, capsys, spec, j, i, k, cause):
    # the split runs at the Dixon prime only, so the first failed check ends
    # the call with its own text
    _tamper_row(monkeypatch, j, i, k)
    G, T = classed(spec)
    with pytest.raises((SplitFailureError, VerificationError)) as caught:
        character_table(G, T)
    assert str(caught.value) == cause
    assert caught.value.__cause__ is None
    assert cli.main(["chartab", spec]) == 1
    assert capsys.readouterr().err == f"error: {cause}\n"


@pytest.mark.parametrize("spec", ("Sym(5)", "Alt(5)", SL23))
def test_no_wrong_table_escapes_a_tampered_row(monkeypatch, spec):
    # every entry of every row the split could read, raised by 1 in turn:
    # with no retry, the one split fails a typed check or gives the true table
    G, T = classed(spec)
    expected = charactered(spec)[2]
    r = T.num_classes
    errors = 0
    for j, i, k in product(range(1, r), range(r), range(r)):
        _tamper_row(monkeypatch, j, i, k)
        try:
            table = character_table(G, T)
        except (SplitFailureError, VerificationError):
            errors += 1
        else:
            assert table == expected, (j, i, k)
    # the split reads some of these entries, so some tampering must show
    assert errors


def test_class_matrix_row_needs_exact_division():
    # with |C_2| of Sym(3) claimed as 4, entry 2 of row 1 of A_1 is 3·2/4
    G, T = classed("Sym(3)")
    assert [c.size for c in T.classes] == [1, 3, 2]
    forged = replace(T, classes=T.classes[:2] + (replace(T.classes[2], size=4),))
    with pytest.raises(VerificationError, match="class matrix 1, row 1: entry 2"):
        class_matrix_row(forged, G, 1, 1)
    # with |C_2| of Sym(4) claimed as 4, both orders count over the 3 members
    # of C_1 times (0 1), and entry 4 is 4·2/6; each error names the caller's ids
    G, T = classed("Sym(4)")
    assert [c.size for c in T.classes] == [1, 3, 6, 8, 6]
    forged = replace(T, classes=T.classes[:2] + (replace(T.classes[2], size=4),) + T.classes[3:])
    for j, i in ((1, 2), (2, 1)):
        with pytest.raises(VerificationError, match=f"class matrix {j}, row {i}: entry 4"):
            class_matrix_row(forged, G, j, i)


def test_tampered_table_fails_inside_character_table(monkeypatch, capsys):
    attempt = chartab._attempt

    def tampered_attempt(G, T, p, e):
        return tampered(attempt(G, T, p, e), zeta(5))

    monkeypatch.setattr(chartab, "_attempt", tampered_attempt)
    G, T = classed("Alt(5)")
    failure = verify_orthogonality(tampered(charactered("Alt(5)")[2], zeta(5)))
    assert failure
    with pytest.raises(VerificationError) as caught:
        character_table(G, T)
    assert str(caught.value) == failure
    assert cli.main(["chartab", "Alt(5)"]) == 1
    assert capsys.readouterr().err == f"error: {failure}\n"


@pytest.mark.parametrize(
    "spec, q, cause",
    [
        ("Sym(3)", 2, "lifted value does not reduce to mod-p data"),
        ("Sym(4)", 2, "root multiplicities do not sum to the degree"),
        ("Alt(5)", 5, "root multiplicities do not sum to the degree"),
        (SL27, 3, "lifted value does not reduce to mod-p data"),
    ],
)
def test_lift_with_a_root_of_lower_order_fails(monkeypatch, spec, q, cause):
    # λ of order e/q makes η = λ^{e/o} a root of order below o for every o
    # that q divides: the lift, tabulated once per element order, must still
    # check every (row, class) and end in its own error, never in a table
    least = chartab._least_primitive_root
    monkeypatch.setattr(chartab, "_least_primitive_root", lambda p, e: least(p, e // q))
    G, T = classed(spec)
    with pytest.raises(SplitFailureError) as caught:
        character_table(G, T)
    assert str(caught.value) == cause
