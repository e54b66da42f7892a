"""Solution counting, orbit splitting, and verdicts."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import lcm, prod
from types import SimpleNamespace

import pytest

from conftest import (
    Q8,
    SL23,
    SL27,
    CENSUS_BYTES_PER_ELEMENT,
    SCAN_BYTES_PER_ELEMENT,
    FullScan,
    character_sum_reference,
    charactered,
    cyclotomic_sum,
    integer_table,
    pair_scan_mismatch,
    tampered,
    traced_peak,
)
from rigidity import counting
from rigidity.chartab import verify_orthogonality
from rigidity.conjugacy import conjugacy_classes
from rigidity.counting import (
    abc_census,
    class_algebra_constant,
    count_equivalence,
    enumerate_solutions,
    frobenius_count,
    orbit_decomposition,
    rigidity_verdict,
    verdict_from_routes,
)
from rigidity.cyclotomic import zeta
from rigidity.errors import CapExceededError, NonIntegerResultError, VerificationError
from rigidity.groupspec import build_group

# irrational values: (1±√5)/2 in Alt(5), ζ₃ in SL(2,3), √−7 and √2 in SL(2,7)
REFERENCE_NAMES = ("Alt(5)", "Sym(5)", SL23, Q8, SL27)


def _reference_value(CT, ids, power, numerator):
    """(numerator/|G|)·Σ_χ ∏χ(g_i)/χ(1)^power by `cyclotomic_sum`.

    The reference for the character route's integer columns: None when the
    value is irrational.
    """
    scaled = cyclotomic_sum(
        (Fraction(numerator, CT.group_order * row.degree**power), [row.values[i] for i in ids])
        for row in CT.rows
    )
    return scaled.as_rational() if scaled.is_rational() else None


def _reference_frobenius(CT, ids):
    """frobenius_count's outcome by the reference: ("value", n) or ("error", message)."""
    value = _reference_value(CT, ids, len(ids) - 2, prod(CT.class_sizes[i] for i in ids))
    if value is None:
        return ("error", f"character sum is irrational for tuple {ids}")
    if value.denominator != 1 or value < 0:
        return ("error", f"character sum gives non-integer {value} for tuple {ids}")
    return ("value", int(value))


def _reference_constant(CT, x, y, z):
    """class_algebra_constant's outcome by the reference."""
    value = _reference_value(CT, (x, y, z), 1, CT.class_sizes[x] * CT.class_sizes[y])
    if value is None:
        return ("error", f"irrational constant for ({x}, {y}, {z})")
    if value.denominator != 1 or value < 0:
        return ("error", f"non-integer constant {value} for ({x}, {y}, {z})")
    return ("value", int(value))


def _outcome(function, *args):
    try:
        return ("value", function(*args))
    except NonIntegerResultError as exc:
        return ("error", str(exc))


DUAL_ROUTE_NAMES = (
    "Sym(3)",
    "Sym(4)",
    "Sym(5)",
    "Alt(4)",
    "Alt(5)",
    Q8,
    "Dih(4)",
    "Cyc(6)",
)


def test_character_count_equals_scan_on_all_triples():
    for name in DUAL_ROUTE_NAMES:
        G, T, CT = charactered(name)
        r = T.num_classes
        for x in range(r):
            for y in range(r):
                for z in range(r):
                    ids = (x, y, z)
                    by_characters = frobenius_count(CT, ids)
                    by_scan = len(enumerate_solutions(G, T, ids))
                    assert by_characters == by_scan, (name, ids)
                    constant = class_algebra_constant(CT, x, y, z)
                    assert by_characters == T.classes[z].size * constant, (name, ids)


@pytest.mark.parametrize("name", ["Sym(4)", "Alt(5)", SL23])
def test_pair_scan_matches_the_per_triple_scan(name):
    G, T, _ = charactered(name)
    assert pair_scan_mismatch(G, T) is None


def test_pair_counts_detect_inverse_classes():
    G, T, CT = charactered("Sym(4)")
    for x in range(T.num_classes):
        for y in range(T.num_classes):
            count = frobenius_count(CT, (x, y))
            expected = T.classes[x].size if y == T.inverse_class[x] else 0
            assert count == expected
            assert count == len(enumerate_solutions(G, T, (x, y)))


def test_quadruple_counts_match_scan():
    G, T, CT = charactered("Sym(3)")
    for ids in ((1, 1, 1, 1), (1, 1, 2, 2), (2, 2, 2, 2), (0, 1, 1, 0)):
        assert frobenius_count(CT, ids) == len(enumerate_solutions(G, T, ids))


def test_non_integer_sum_is_rejected():
    _, _, CT = charactered("Sym(3)")
    with pytest.raises(NonIntegerResultError):
        frobenius_count(tampered(CT, 1), (2, 2, 2))


def test_character_route_matches_the_cyclotomic_reference():
    for name in REFERENCE_NAMES:
        _, T, CT = charactered(name)
        r = T.num_classes
        for ids in product(range(r), repeat=2):
            assert _outcome(frobenius_count, CT, ids) == _reference_frobenius(CT, ids)
        for ids in product(range(r), repeat=3):
            assert _outcome(frobenius_count, CT, ids) == _reference_frobenius(CT, ids)
            assert _outcome(class_algebra_constant, CT, *ids) == _reference_constant(
                CT, *ids
            )
    _, T, CT = charactered(SL27)
    rng = random.Random(7)
    for _ in range(200):
        ids = tuple(rng.randrange(T.num_classes) for _ in range(4))
        assert _outcome(frobenius_count, CT, ids) == _reference_frobenius(CT, ids)


def test_tampered_tables_match_the_reference():
    for name in ("Sym(3)", SL23, "Alt(5)"):
        _, T, CT = charactered(name)
        for delta, denominator in ((zeta(5), 1), (Fraction(1, 2), 2)):
            bad = tampered(CT, delta)
            assert integer_table(bad)[1] == denominator
            outcomes = []
            for ids in product(range(T.num_classes), repeat=3):
                outcome = _outcome(frobenius_count, bad, ids)
                assert outcome == _reference_frobenius(bad, ids), (name, delta, ids)
                assert _outcome(class_algebra_constant, bad, *ids) == _reference_constant(
                    bad, *ids
                )
                outcomes.append(outcome)
            if denominator == 1:
                assert any("irrational" in message for kind, message in outcomes if kind == "error")
            else:
                assert any(kind == "error" for kind, _ in outcomes)


def test_memoized_sums_equal_sums_on_a_fresh_table():
    # every ordered triple on one table, against a fresh table (empty memo) per call
    for name in ("Sym(4)", SL23, "Alt(5)"):
        _, T, CT = charactered(name)
        for table in (replace(CT), tampered(CT, zeta(5)), tampered(CT, Fraction(1, 2))):
            for ids in product(range(T.num_classes), repeat=3):
                assert _outcome(frobenius_count, table, ids) == _outcome(
                    frobenius_count, replace(table), ids
                ), (name, ids)
                assert _outcome(class_algebra_constant, table, *ids) == _outcome(
                    class_algebra_constant, replace(table), *ids
                ), (name, ids)
            multisets = combinations_with_replacement(range(T.num_classes), 3)
            assert set(table.character_sums) == {(ids, 1) for ids in multisets}
    # a negative whole value is an error too, printed in lowest terms (D = 2 here)
    _, _, CT = charactered("Alt(5)")
    assert _outcome(frobenius_count, tampered(CT, Fraction(1, 2)), (4, 2, 0)) == (
        "error",
        "character sum gives non-integer -2 for tuple (4, 2, 0)",
    )


class _StoreOnceMemo(dict):
    """A table memo that counts its stores and refuses a second store of a key."""

    stores = 0

    def __setitem__(self, key, value):
        assert key not in self, key
        self.stores += 1
        super().__setitem__(key, value)


def test_count_equivalence_computes_one_sum_per_multiset():
    for name, multisets in (("Alt(5)", 35), ("Sym(5)", 84)):
        G, T, CT = charactered(name)
        table = replace(CT)
        memo = table.__dict__["character_sums"] = _StoreOnceMemo()
        assert count_equivalence(G, T, table) == (T.num_classes**3, [])
        assert memo.stores == multisets


@pytest.mark.parametrize("name", ["Sym(5)", "Alt(5)", SL23, SL27, "Dih(15)", "tampered"])
def test_count_equivalence_stores_the_reference_sums(monkeypatch, name):
    # SL(2,7) has conductors 1, 7 and 8, so one pair's last classes span several
    # conductors; the tampered SL(2,7) table has a column with D = 2
    if name == "tampered":
        G, T, CT = charactered(SL27)
        table = tampered(CT, Fraction(1, 2))
        assert integer_table(table)[1] == 2
        # its counts are not integers; the memo is filled without them
        monkeypatch.setattr(counting, "frobenius_count", lambda CT, ids: 0)
        monkeypatch.setattr(counting, "class_algebra_constant", lambda CT, x, y, z: 0)
    else:
        G, T, CT = charactered(name)
        table = replace(CT)
    count_equivalence(G, T, table)
    multisets = combinations_with_replacement(range(T.num_classes), 3)
    assert set(table.character_sums) == {(ids, 1) for ids in multisets}
    for (ids, power), found in table.character_sums.items():
        assert found == character_sum_reference(table, ids, power), ids


def test_count_equivalence_calls_the_sum_kernel_once_per_pair(monkeypatch):
    real, calls = counting._character_sums, []

    def wrapped(CT, head, lasts, power):
        calls.append((tuple(head), list(lasts), power))
        return real(CT, head, lasts, power)

    monkeypatch.setattr(counting, "_character_sums", wrapped)
    for name in ("Sym(5)", SL27):
        G, T, CT = charactered(name)
        r = T.num_classes
        calls.clear()
        table = replace(CT)
        assert count_equivalence(G, T, table) == (r**3, [])
        assert len(calls) == r * (r + 1) // 2
        assert calls == [
            ((i, j), list(range(j, r)), 1) for i in range(r) for j in range(i, r)
        ]
        # a warm memo needs no sum
        calls.clear()
        assert count_equivalence(G, T, table) == (r**3, [])
        assert calls == []


def test_each_column_is_lifted_once_per_conductor():
    # the check and the character route share one lift per (class, conductor)
    G, T, CT = charactered(SL27)
    table = replace(CT)
    memo = table.__dict__["columns"] = _StoreOnceMemo()
    assert verify_orthogonality(table) is None
    assert count_equivalence(G, T, table) == (T.num_classes**3, [])
    r, conductors = T.num_classes, table.conductors
    pairs = {(k, lcm(conductors[k], conductors[l])) for k in range(r) for l in range(r)}
    triples = {
        (i, lcm(*(conductors[j] for j in ids)))
        for ids in combinations_with_replacement(range(r), 3)
        for i in ids
    }
    assert set(memo) == pairs | triples
    for ids in product(range(r), repeat=3):
        assert frobenius_count(table, ids) == frobenius_count(CT, ids), ids


# Sym(6) relabelled, so that its element indices and class representatives
# differ from those of the built-in Sym(6)
SYM6_RELABELLED = "Perm(6; (0 2), (0 2 3 5 4 1))"


def test_reduced_route_matches_the_full_scan():
    def check(reference, ids):
        G, T = reference.G, reference.T
        reduced = orbit_decomposition(G, enumerate_solutions(G, T, ids))
        assert reduced == reference.decomposition(reference.solutions(ids)), ids

    for name in REFERENCE_NAMES:
        reference = FullScan(*charactered(name)[:2])
        for repeat in (2, 3):
            for ids in product(range(reference.T.num_classes), repeat=repeat):
                check(reference, ids)
        if name == SL27:
            rng = random.Random(7)
            for _ in range(200):
                check(reference, tuple(rng.randrange(reference.T.num_classes) for _ in range(4)))
    reference = FullScan(*charactered(SYM6_RELABELLED)[:2])
    rng = random.Random(6)
    for repeat in (2, 3) * 10:
        check(reference, tuple(rng.randrange(reference.T.num_classes) for _ in range(repeat)))


def test_input_validation():
    G, T, CT = charactered("Sym(4)")
    with pytest.raises(ValueError, match="need at least 2 classes, got 1"):
        frobenius_count(CT, (1,))
    with pytest.raises(IndexError, match=r"class id 99 outside 0\.\.4"):
        frobenius_count(CT, (0, 99))
    with pytest.raises(IndexError, match=r"class id -1 outside 0\.\.4"):
        frobenius_count(CT, (-1, 0))
    with pytest.raises(IndexError, match=r"class id 5 outside 0\.\.4"):
        class_algebra_constant(CT, 0, 1, 5)
    with pytest.raises(ValueError, match="need at least 2 classes, got 1"):
        enumerate_solutions(G, T, (2,))
    with pytest.raises(IndexError, match=r"class id 99 outside 0\.\.4"):
        enumerate_solutions(G, T, (2, 99))


def test_scan_cap():
    G, T, _ = charactered("Sym(5)")
    with pytest.raises(CapExceededError):
        enumerate_solutions(G, T, (4, 4, 4), cap=100)


@pytest.mark.parametrize(
    "spec, ids", [("Sym(6)", (2, 4, 4, 2)), (SL27, (2, 3, 4, 5))], ids=["Sym(6)", "SL(2,7)"]
)
def test_four_class_scan_memory_stays_near_the_group_size(spec, ids):
    # a fresh group, so the scan memoizes its inverses inside the traced call
    G = build_group(spec)
    T = conjugacy_classes(G)
    S, peak = traced_peak(enumerate_solutions, G, T, ids)
    assert len(S.reduced) == 168
    assert peak <= SCAN_BYTES_PER_ELEMENT * G.order


def test_census_memory_stays_near_the_group_size():
    # classes first, so the trace holds the census alone: the orbit search
    # conjugates by centralizer generators and the fingerprints by their seeds
    G = build_group("Alt(8)")
    T = conjugacy_classes(G)
    census, peak = traced_peak(abc_census, G, T, 2, 3, 7)
    assert [orbit.subgroup_fingerprint[0] for orbit in census.orbits] == [168] * 6
    assert peak <= CENSUS_BYTES_PER_ELEMENT * G.order
    assert set(G._conjugates) <= set(G.generator_indices)


def test_solutions_multiply_to_identity_within_classes():
    G, T, _ = charactered("Alt(5)")
    ids = (1, 2, 3)
    S = enumerate_solutions(G, T, ids)
    full = FullScan(G, T).solutions(ids)
    rep = T.classes[ids[0]].representative
    assert S.reduced == tuple(sol for sol in full if sol[0] == rep)
    assert len(S) == len(full) == T.classes[ids[0]].size * len(S.reduced)
    for sol in S.reduced:
        acc = G.identity_index
        for x in sol:
            acc = G.mult(acc, x)
        assert acc == G.identity_index
        assert tuple(T.class_of[x] for x in sol) == ids


def test_orbit_invariants():
    for name, ids in (("Sym(4)", (1, 3, 3)), ("Alt(5)", (1, 2, 2)), (Q8, (1, 2, 3))):
        G, T, _ = charactered(name)
        S = enumerate_solutions(G, T, ids)
        orbits = orbit_decomposition(G, S)
        full = FullScan(G, T).solutions(ids)
        assert sum(o.size for o in orbits) == len(S) == len(full)
        for o in orbits:
            assert G.order % o.size == 0
            assert o.size * o.stabilizer_order == G.order
            assert o.representative in full


def test_orbits_are_closed_and_representatives_least():
    G, T, _ = charactered("Alt(4)")
    S = enumerate_solutions(G, T, (1, 1, 1))
    for o in orbit_decomposition(G, S):
        members = {o.representative}
        frontier = [o.representative]
        while frontier:
            sol = frontier.pop()
            for g in range(G.order):
                image = tuple(G.conjugate(x, g) for x in sol)
                if image not in members:
                    members.add(image)
                    frontier.append(image)
        assert len(members) == o.size
        assert min(members) == o.representative


def test_count_is_rotation_and_reversal_invariant():
    # each count on a fresh table, so the arithmetic is compared, not a memo hit
    _, T, CT = charactered("Sym(4)")
    r = T.num_classes
    for x in range(r):
        for y in range(r):
            for z in range(r):
                n = frobenius_count(replace(CT), (x, y, z))
                assert n == frobenius_count(replace(CT), (y, z, x))
                assert n == frobenius_count(
                    replace(CT),
                    (T.inverse_class[z], T.inverse_class[y], T.inverse_class[x]),
                )


def test_verdicts():
    G, T, CT = charactered("Sym(3)")
    v = rigidity_verdict(G, T, CT, (1, 1, 2))
    assert (v.kind, v.stabilizer_order) == ("rigid", 1)
    v = rigidity_verdict(G, T, CT, (2, 2, 2))
    assert (v.kind, v.stabilizer_order) == ("rigid", 3)

    G, T, CT = charactered("Alt(4)")
    v = rigidity_verdict(G, T, CT, (1, 1, 1))
    assert (v.kind, v.num_orbits) == ("not-rigid", 2)
    assert v.count == 6
    assert [(o.size, o.stabilizer_order) for o in v.orbits] == [(3, 4), (3, 4)]
    assert v.stabilizer_order is None

    G, T, CT = charactered("Sym(5)")
    v = rigidity_verdict(G, T, CT, (1, 4, 5))
    assert (v.kind, v.stabilizer_order) == ("rigid", 1)
    v = rigidity_verdict(G, T, CT, (2, 4, 5))
    assert v.kind == "empty"
    assert v.stabilizer_order is None
    assert v.num_orbits == 0


def test_disagreeing_routes_raise():
    G, T, _ = charactered("Sym(5)")
    ids = (1, 4, 5)
    orbits = orbit_decomposition(G, enumerate_solutions(G, T, ids))
    assert verdict_from_routes(ids, 120, orbits).kind == "rigid"
    for wrong in (0, 119):
        with pytest.raises(VerificationError, match="disagrees with scan 120"):
            verdict_from_routes(ids, wrong, orbits)


def test_count_equivalence_records_mismatches(monkeypatch):
    G, T, CT = charactered("Sym(3)")
    assert count_equivalence(G, T, CT) == (27, [])
    real = counting.frobenius_count
    monkeypatch.setattr(
        counting,
        "frobenius_count",
        lambda CT, ids: real(CT, ids) + (ids == (1, 1, 2)),
    )
    triples, mismatches = count_equivalence(G, T, CT)
    assert triples == 27
    # one count per multiset: the forged count of (1, 1, 2) is read for every
    # ordering, and each ordering still compares its own scan with it
    assert mismatches == [
        {
            "class-ids": [1, 1, 2],
            "character-count": 7,
            "scan-count": 6,
            "class-algebra-constant": 3,
        },
        {
            "class-ids": [1, 2, 1],
            "character-count": 7,
            "scan-count": 6,
            "class-algebra-constant": 2,
        },
        {
            "class-ids": [2, 1, 1],
            "character-count": 7,
            "scan-count": 6,
            "class-algebra-constant": 2,
        },
    ]


def test_count_equivalence_records_scan_mismatches(monkeypatch):
    # one product misreported: rep₁·rep₁ of a transposition reads as rep₁, not 1;
    # the pair scan multiplies keys, so the forgery is in the group's element kind
    G, T, CT = charactered("Sym(3)")
    rep = G.elements[T.classes[1].representative]
    kind = G.kind
    forged = SimpleNamespace(
        mul=lambda a, b: rep if a == b == rep else kind.mul(a, b), inverse=kind.inverse
    )
    monkeypatch.setattr(G, "kind", forged)
    triples, mismatches = count_equivalence(G, T, CT)
    assert triples == 27
    assert mismatches == [
        {
            "class-ids": [1, 1, 0],
            "character-count": 3,
            "scan-count": 0,
            "class-algebra-constant": 3,
        },
        {
            "class-ids": [1, 1, 1],
            "character-count": 0,
            "scan-count": 3,
            "class-algebra-constant": 0,
        },
    ]
    # the character route read the table, not the forged product
    for record in mismatches:
        assert record["character-count"] == frobenius_count(CT, record["class-ids"])
    monkeypatch.undo()
    assert count_equivalence(G, T, CT) == (27, [])


def test_stabilizer_mass_formula():
    # summing 1/|stabilizer| over orbits recovers total/|G| exactly
    for name, ids in (("Alt(4)", (1, 1, 1)), ("Sym(5)", (1, 4, 5)), ("Alt(5)", (1, 3, 4))):
        G, T, _ = charactered(name)
        S = enumerate_solutions(G, T, ids)
        mass = sum(
            (Fraction(1, o.stabilizer_order) for o in orbit_decomposition(G, S)),
            Fraction(0),
        )
        assert mass == Fraction(len(S), G.order)


def test_census_shape_and_totals():
    G, T, _ = charactered("Sym(5)")
    census = abc_census(G, T, 2, 4, 5)
    assert census.orders == (2, 4, 5)
    assert sum(count for _, count in census.per_tuple) == census.total
    assert census.total == 120
    assert dict(census.per_tuple) == {(1, 4, 5): 120, (2, 4, 5): 0}
    assert len(census.orbits) == 1
    orbit = census.orbits[0]
    assert (orbit.size, orbit.stabilizer_order, orbit.subgroup_order) == (120, 1, 120)
    assert orbit.subgroup_fingerprint == G.fingerprint()
    for ids, orbits in census.decompositions:
        assert orbits == orbit_decomposition(G, enumerate_solutions(G, T, ids))


def test_census_orbits_match_the_union_decomposition():
    for name, orders in (("Alt(4)", (2, 2, 2)), ("Alt(5)", (2, 5, 5)), ("Sym(4)", (2, 3, 4))):
        G, T, _ = charactered(name)
        census = abc_census(G, T, *orders)
        reference = FullScan(G, T)
        union = sorted(
            sol for ids, _ in census.per_tuple for sol in reference.solutions(ids)
        )
        whole = reference.decomposition(union)
        assert census.total == len(union)
        assert [(o.representative, o.size, o.stabilizer_order) for o in census.orbits] == [
            (o.representative, o.size, o.stabilizer_order) for o in whole
        ]


@pytest.mark.parametrize(
    "spec, orders",
    [("Perm(6; (0 2), (0 2 3 5 4 1))", (2, 4, 5)), (SL27, (3, 4, 7))],
    ids=["relabelled-Sym(6)", "SL(2,7)"],
)
def test_census_is_the_same_on_a_warm_conjugation_memo(spec, orders):
    G = build_group(spec)
    T = conjugacy_classes(G)
    first = abc_census(G, T, *orders)
    assert abc_census(G, T, *orders) == first
    fresh = build_group(spec)
    assert abc_census(fresh, conjugacy_classes(fresh), *orders) == first


def test_census_on_even_subgroup():
    G, T, _ = charactered("Alt(5)")
    census = abc_census(G, T, 2, 5, 5)
    assert census.total == 120
    assert len(census.orbits) == 2
    for orbit in census.orbits:
        assert (orbit.size, orbit.stabilizer_order) == (60, 1)
        assert orbit.subgroup_order == 60
        assert orbit.subgroup_fingerprint == G.fingerprint()


def test_census_with_no_classes_of_an_order():
    G, T, _ = charactered("Sym(4)")
    census = abc_census(G, T, 2, 4, 5)
    assert census.per_tuple == ()
    assert census.total == 0
    assert census.orbits == ()


def test_degenerate_generated_subgroup():
    G, T, _ = charactered("Cyc(6)")
    # a commuting pair generates a proper cyclic subgroup
    assert G.fingerprint((2, 4)) == (3, (1, 1, 1), ((1, 1), (3, 2)))


def test_generated_subgroup_report_validation():
    G, _, _ = charactered("Sym(4)")
    with pytest.raises(IndexError):
        G.fingerprint((0, 999))
