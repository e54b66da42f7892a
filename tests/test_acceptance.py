"""Acceptance gate: the seven headline checks, one pass/fail line each.

Run with -s (or read the -v status column) to see the lines.  Every check
is exact integer or exact symbolic equality; there are no tolerances.
"""

from __future__ import annotations

import json

from conftest import charactered, group
from rigidity import cli
from rigidity.chartab import character_table, verify_orthogonality
from rigidity.conjugacy import classes_of_element_order, conjugacy_classes
from rigidity.counting import (
    abc_census,
    class_algebra_constant,
    enumerate_solutions,
    frobenius_count,
    orbit_decomposition,
    rigidity_verdict,
)
from rigidity.groups import cyc_group, dih_group
from rigidity.murnaghan import murnaghan_nakayama
from rigidity.qsymbolic import (
    LEDGER_ONE,
    LEDGER_TWO,
    dimension_criterion,
    lang_splitting_data,
    normalized_solution_count,
    orbit_mass,
)


def report(criterion: int, description: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"{status} criterion {criterion}: {description}")
    assert not failures, f"criterion {criterion}: {failures}"


def test_criterion_1_sym5_census(capsys):
    failures = []
    code = cli.main(["rigid", "Sym(5)", "2", "4", "5", "--format", "structured"])
    body = json.loads(capsys.readouterr().out)
    if code != 0:
        failures.append(f"exit code {code}")
    if body["census"]["total"] != 120:
        failures.append("cli census total")
    G, T, _ = charactered("Sym(5)")
    census = abc_census(G, T, 2, 4, 5)
    if census.total != 120:
        failures.append(f"total {census.total} != 120")
    if len(census.orbits) != 1:
        failures.append(f"{len(census.orbits)} orbits != 1")
    else:
        orbit = census.orbits[0]
        if orbit.size != 120 or orbit.stabilizer_order != 1:
            failures.append(f"orbit ({orbit.size}, {orbit.stabilizer_order})")
        if orbit.subgroup_order != 120:
            failures.append(f"generated subgroup order {orbit.subgroup_order}")
    report(1, "120 order-(2,4,5) triples in Sym(5), one orbit, all generating", failures)


def test_criterion_2_rotation_group_shadow():
    failures = []
    G = group("SO3(5)")
    if G.order != 120:
        failures.append(f"order {G.order} != 120")
    derived = G.subgroup(tuple(sorted(G.derived_subgroup())))
    if derived.order != 60:
        failures.append(f"derived order {derived.order} != 60")
    if G.fingerprint() != group("Sym(5)").fingerprint():
        failures.append("fingerprint differs from the degree-5 symmetric group")
    T = conjugacy_classes(G)
    order5 = classes_of_element_order(T, 5)
    sizes = [T.classes[i].size for i in order5]
    if sizes != [24]:
        failures.append(f"order-5 class sizes {sizes} != [24]")
    census = abc_census(G, T, 2, 4, 5)
    if census.total != 120 or len(census.orbits) != 1:
        failures.append(f"census ({census.total}, {len(census.orbits)} orbits)")
    report(2, "matrix rotation group over F5 shadows Sym(5) exactly", failures)


def test_criterion_3_oracle_equivalence():
    failures = []
    checked = 0
    for name in ("Sym(3)", "Sym(4)", "Sym(5)", "Alt(4)", "Alt(5)"):
        G, T, CT = charactered(name)
        r = T.num_classes
        for x in range(r):
            for y in range(r):
                for z in range(r):
                    ids = (x, y, z)
                    a = frobenius_count(CT, ids)
                    b = len(enumerate_solutions(G, T, ids))
                    c = T.classes[z].size * class_algebra_constant(CT, x, y, z)
                    checked += 1
                    if not (a == b == c):
                        failures.append((name, ids, a, b, c))
    if checked != 27 + 125 + 343 + 64 + 125:
        failures.append(f"only {checked} triples checked")
    report(3, f"character count = scan = class-algebra route on {checked} triples", failures)


def test_criterion_4_character_tables():
    failures = []
    names = ("Sym(3)", "Sym(4)", "Sym(5)", "Sym(6)", "Alt(4)", "Alt(5)")
    jobs = [charactered(n)[::2] for n in names]
    jobs += [(G, character_table(G, conjugacy_classes(G)))
             for G in (cyc_group(n) for n in range(1, 13))]
    jobs += [(G, character_table(G, conjugacy_classes(G)))
             for G in (dih_group(n) for n in range(1, 9))]
    for G, CT in jobs:
        violation = verify_orthogonality(CT)
        if violation is not None:
            failures.append((G.order, violation))
        if sum(chi.degree ** 2 for chi in CT.rows) != G.order:
            failures.append((G.order, "degree squares"))
    for n in range(3, 7):
        _, T, CT = charactered(f"Sym({n})")
        oracle = murnaghan_nakayama(T)
        if oracle.rows != CT.rows:
            failures.append((f"Sym({n})", "combinatorial oracle mismatch"))
    report(
        4,
        f"{len(jobs)} character tables orthogonal; 4 match the combinatorial oracle",
        failures,
    )


def test_criterion_5_symbolic_identities():
    failures = []
    for ledger in (LEDGER_ONE, LEDGER_TWO):
        total = normalized_solution_count(ledger.entries)
        if not total.is_one():
            failures.append((ledger.name, repr(total)))
    if orbit_mass([6, 3, 2, 2, 2]) != 2:
        failures.append("orbit mass")
    if lang_splitting_data(group("Sym(3)")) != (6, 3, 2):
        failures.append("splitting data")
    if dimension_criterion([8, 10, 10], 14) != (28, True):
        failures.append("dimension criterion")
    report(5, "both cited ledgers sum to 1; masses, splitting, dimensions agree", failures)


def test_criterion_6_negative_controls():
    failures = []
    G, T, CT = charactered("Alt(4)")
    v = rigidity_verdict(G, T, CT, (1, 1, 1))
    if (v.kind, v.num_orbits) != ("not-rigid", 2):
        failures.append(f"Alt(4) verdict {v}")
    orbits = orbit_decomposition(G, enumerate_solutions(G, T, (1, 1, 1)))
    shape = sorted((o.size, o.stabilizer_order) for o in orbits)
    if shape != [(3, 4), (3, 4)]:
        failures.append(f"Alt(4) orbit shape {shape}")
    G, T, CT = charactered("Sym(5)")
    if frobenius_count(CT, (2, 4, 5)) != 0:
        failures.append("Sym(5) double-transposition count")
    v = rigidity_verdict(G, T, CT, (2, 4, 5))
    if v.kind != "empty":
        failures.append(f"Sym(5) verdict {v.kind}")
    report(6, "non-rigid and empty inputs are reported as such", failures)


def test_criterion_7_deterministic_audit(capsys):
    failures = []
    code_1 = cli.main(["paper-audit", "--format", "structured"])
    first = capsys.readouterr().out
    code_2 = cli.main(["paper-audit", "--format", "structured"])
    second = capsys.readouterr().out
    if code_1 != 0 or code_2 != 0:
        failures.append(f"exit codes ({code_1}, {code_2})")
    if first != second:
        failures.append("outputs differ between runs")
    if json.loads(first)["overall"] != "pass":
        failures.append("audit did not pass")
    report(7, "audit output is byte-identical across runs and passes", failures)
