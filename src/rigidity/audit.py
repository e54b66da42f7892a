"""The full audit: every headline check in one deterministic report.

Six sections, run in order: (1) the symmetric-group triple census, (2) the
orthogonal-group shadow of the same census, (3) character-count versus
brute-force equivalence over five small groups, (4) the character-table
cross-check against the combinatorial oracle, (5) the symbolic ledger
identities, (6) negative controls that must come out non-rigid or empty.

Checks carry a provenance tag: "computed" for values this toolkit derives
from scratch, "cited" for values imported from the literature ledger; every
cited check carries its citation string.  A check against one expected value
lists it before the computed one.  A ledger override file that cannot be
read as a ledger is reported once, with the file's path.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__
from .chartab import CharacterTable, character_table
from .conjugacy import ClassTable, classes_of_element_order, conjugacy_classes
from .counting import abc_census, count_equivalence, rigidity_verdict
from .groups import FiniteGroup
from .groupspec import build_group
from .murnaghan import murnaghan_nakayama
from .qsymbolic import (
    CITATION_DIMENSIONS,
    DIMENSION_DATA,
    LEDGER_ONE,
    LEDGER_TWO,
    Ledger,
    LedgerEntry,
    QPolynomial,
    dimension_criterion,
    lang_splitting_data,
    normalized_solution_count,
    orbit_mass,
)

ALL_SECTIONS = (1, 2, 3, 4, 5, 6)


def _check(name, ok, values, provenance="computed", citation=None):
    entry = {
        "name": name,
        "status": "pass" if ok else "fail",
        "provenance": provenance,
        "values": values,
    }
    if citation is not None:
        entry["citation"] = citation
    return entry


def _expect(name, expected, computed):
    return _check(
        name, computed == expected, {"expected": expected, "computed": computed}
    )


class Pipelines:
    """Groups, class tables and character tables by spec text, each built once.

    One instance per audit run, so nothing outlives the run.
    """

    def __init__(self):
        self._groups = {}
        self._classes = {}
        self._characters = {}

    def group(self, spec: str) -> FiniteGroup:
        if spec not in self._groups:
            self._groups[spec] = build_group(spec)
        return self._groups[spec]

    def classes(self, spec: str) -> tuple[FiniteGroup, ClassTable]:
        G = self.group(spec)
        if spec not in self._classes:
            self._classes[spec] = conjugacy_classes(G)
        return G, self._classes[spec]

    def characters(self, spec: str) -> tuple[FiniteGroup, ClassTable, CharacterTable]:
        G, T = self.classes(spec)
        if spec not in self._characters:
            self._characters[spec] = character_table(G, T)
        return G, T, self._characters[spec]


def _section_census(pipelines: Pipelines):
    G, T = pipelines.classes("Sym(5)")
    census = abc_census(G, T, 2, 4, 5)
    orbit = census.orbits[0] if census.orbits else None
    checks = [
        _expect("total-solutions", 120, census.total),
        _expect("orbit-count", 1, len(census.orbits)),
        _expect("stabilizer-order", 1, orbit.stabilizer_order if orbit else None),
        _check(
            "generated-subgroup-orders",
            bool(census.orbits)
            and all(o.subgroup_order == 120 for o in census.orbits),
            {
                "expected": 120,
                "computed": [o.subgroup_order for o in census.orbits],
            },
        ),
    ]
    return "order-(2,4,5) census in the degree-5 symmetric group", checks


def _section_shadow(pipelines: Pipelines):
    G, T = pipelines.classes("SO3(5)")
    S5 = pipelines.group("Sym(5)")
    derived_order = len(G.derived_subgroup())
    fingerprint, sym5_fingerprint = G.fingerprint(), S5.fingerprint()
    order5 = classes_of_element_order(T, 5)
    sizes5 = [T.classes[i].size for i in order5]
    census = abc_census(G, T, 2, 4, 5)
    checks = [
        _expect("group-order", 120, G.order),
        _expect("derived-subgroup-order", 60, derived_order),
        _check(
            "fingerprint-match",
            fingerprint == sym5_fingerprint,
            {"so3": list(fingerprint[1]), "sym5": list(sym5_fingerprint[1])},
        ),
        _check(
            "order-5-classes",
            len(order5) == 1 and sizes5 == [24],
            {"expected-sizes": [24], "computed-sizes": sizes5},
        ),
        _check(
            "census-total-and-transitivity",
            census.total == 120 and len(census.orbits) == 1,
            {
                "expected-total": 120,
                "computed-total": census.total,
                "orbit-count": len(census.orbits),
            },
        ),
    ]
    return "3-dimensional orthogonal-group shadow over F5", checks


def _section_equivalence(pipelines: Pipelines):
    checks = []
    for label in ("Sym(3)", "Sym(4)", "Sym(5)", "Alt(4)", "Alt(5)"):
        triples, mismatches = count_equivalence(*pipelines.characters(label))
        checks.append(
            _check(
                f"count-equivalence-{label}",
                not mismatches,
                {"triples": triples, "mismatches": len(mismatches)},
            )
        )
    return "character count versus exhaustive scan", checks


def _section_chartab(pipelines: Pipelines):
    G, T, CT = pipelines.characters("Sym(5)")
    oracle = murnaghan_nakayama(T)
    equal = (
        CT.class_sizes == oracle.class_sizes
        and CT.class_orders == oracle.class_orders
        and CT.rows == oracle.rows
    )
    checks = [
        _check(
            "eigenvalue-route-vs-combinatorial-route",
            equal,
            {"rows": len(CT.rows), "equal": equal},
        )
    ]
    return "character-table dual derivation for the degree-5 symmetric group", checks


def _section_symbolic(pipelines: Pipelines, ledgers: dict[str, Ledger]):
    one = ledgers["triple-1"]
    two = ledgers["triple-2"]
    sum_one = normalized_solution_count(one.entries)
    sum_two = normalized_solution_count(two.entries)
    mass_three = orbit_mass([6, 3, 2])
    mass_union = orbit_mass([6, 3, 2, 2, 2])
    G3 = pipelines.group("Sym(3)")
    splitting = lang_splitting_data(G3)
    dims = [d.class_dimension for d in DIMENSION_DATA]
    total, satisfied = dimension_criterion(dims, 14)
    checks = [
        _check(
            "ledger-one-normalized-sum",
            sum_one.is_one(),
            {"sum": sum_one, "entries": _ledger_values(one)},
            provenance="cited",
            citation=one.citation,
        ),
        _check(
            "ledger-two-normalized-sum",
            sum_two.is_one(),
            {"sum": sum_two, "entries": _ledger_values(two)},
            provenance="cited",
            citation=two.citation,
        ),
        _check(
            "orbit-mass-single-census",
            mass_three == 1,
            {"stabilizer-orders": [6, 3, 2], "mass": mass_three},
        ),
        _check(
            "orbit-mass-both-censuses",
            mass_union == 2,
            {"stabilizer-orders": [6, 3, 2, 2, 2], "mass": mass_union},
        ),
        _expect("component-group-splitting-data", [6, 3, 2], list(splitting)),
        _check(
            "dimension-criterion",
            total == 28 and satisfied and total == 2 * 14,
            {
                "class-dimensions": dims,
                "sum": total,
                "twice-ambient-dimension": 28,
                "satisfied-with-equality": total == 28 and satisfied,
            },
            provenance="cited",
            citation=CITATION_DIMENSIONS,
        ),
    ]
    return "symbolic ledger identities", checks


def _section_negative(pipelines: Pipelines):
    G4, T4, CT4 = pipelines.characters("Alt(4)")
    ids4 = classes_of_element_order(T4, 2)
    triple4 = (ids4[0],) * 3
    verdict4 = rigidity_verdict(G4, T4, CT4, triple4)
    orbit_shape = sorted((o.size, o.stabilizer_order) for o in verdict4.orbits)

    G5, T5, CT5 = pipelines.characters("Sym(5)")
    double = [i for i in classes_of_element_order(T5, 2) if T5.classes[i].size == 15]
    four = classes_of_element_order(T5, 4)
    five = classes_of_element_order(T5, 5)
    triple5 = (double[0], four[0], five[0])
    verdict5 = rigidity_verdict(G5, T5, CT5, triple5)
    checks = [
        _check(
            "involution-triple-not-rigid",
            verdict4.kind == "not-rigid"
            and verdict4.num_orbits == 2
            and orbit_shape == [(3, 4), (3, 4)],
            {
                "verdict": verdict4.kind,
                "orbit-count": verdict4.num_orbits,
                "orbit-sizes-and-stabilizers": [list(t) for t in orbit_shape],
            },
        ),
        _check(
            "double-transposition-triple-empty",
            verdict5.count == 0 and verdict5.kind == "empty",
            {"character-count": verdict5.count, "verdict": verdict5.kind},
        ),
    ]
    return "negative controls", checks


def _ledger_values(ledger: Ledger):
    return [
        {
            "label": entry.label,
            "a-value": entry.a_value,
            "centralizer-order": entry.centralizer_order,
        }
        for entry in ledger.entries
    ]


def _poly_from_terms(terms, where: str) -> QPolynomial:
    if not isinstance(terms, list):
        raise ValueError(f"{where}: expected a list of [degree, num, den] terms")
    coeffs = {}
    for term in terms:
        # type, not isinstance: JSON true and false load as bool, an int subclass
        if (
            not isinstance(term, list)
            or len(term) != 3
            or not all(type(v) is int for v in term)
        ):
            raise ValueError(f"{where}: bad term {term!r}")
        degree, num, den = term
        if degree < 0:
            raise ValueError(f"{where}: negative degree in term {term!r}")
        if den == 0:
            raise ValueError(f"{where}: zero denominator")
        coeffs[degree] = coeffs.get(degree, Fraction(0)) + Fraction(num, den)
    return QPolynomial(coeffs)


def load_ledger_overrides(path: str) -> dict[str, Ledger]:
    """Parse a ledger override file; absent keys keep the embedded ledgers.

    A file that cannot be opened, decoded, parsed or checked raises one
    ValueError, prefixed with the file's path.
    """
    ledgers = {"triple-1": LEDGER_ONE, "triple-2": LEDGER_TWO}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("top level must be an object")
        for name, rows in data.items():
            if name not in ledgers:
                raise ValueError(f"unknown key {name!r}")
            if not isinstance(rows, list):
                raise ValueError(f"{name} must be a list")
            entries = []
            for i, row in enumerate(rows):
                if not isinstance(row, dict):
                    raise ValueError(f"{name}[{i}] must be an object")
                try:
                    label = row["label"]
                    a_terms = row["a_value"]
                    c_terms = row["centralizer_order"]
                except KeyError as exc:
                    raise ValueError(f"{name}[{i}] missing {exc}") from exc
                entries.append(
                    LedgerEntry(
                        label=str(label),
                        a_value=_poly_from_terms(a_terms, f"{name}[{i}].a_value"),
                        centralizer_order=_poly_from_terms(
                            c_terms, f"{name}[{i}].centralizer_order"
                        ),
                    )
                )
            ledgers[name] = Ledger(
                name=name,
                entries=tuple(entries),
                citation=f"override from {path}",
            )
    except (OSError, ValueError) as exc:
        raise ValueError(f"ledger file {path}: {exc}") from exc
    return ledgers


def run_audit(sections=None, ledger: str | None = None) -> dict:
    """Run the selected audit sections and assemble the report tree; ledger is
    the path of an override file for `load_ledger_overrides`, echoed in input."""
    if ledger is None:
        ledgers = {"triple-1": LEDGER_ONE, "triple-2": LEDGER_TWO}
    else:
        ledgers = load_ledger_overrides(ledger)
    if sections is None:
        selected = list(ALL_SECTIONS)
    else:
        selected = sorted(set(sections))
        bad = [s for s in selected if s not in ALL_SECTIONS]
        if bad:
            raise ValueError(f"unknown audit sections {bad}; valid: 1..6")
    pipelines = Pipelines()
    runners = {
        1: lambda: _section_census(pipelines),
        2: lambda: _section_shadow(pipelines),
        3: lambda: _section_equivalence(pipelines),
        4: lambda: _section_chartab(pipelines),
        5: lambda: _section_symbolic(pipelines, ledgers),
        6: lambda: _section_negative(pipelines),
    }
    report_sections = []
    all_pass = True
    for index in selected:
        title, checks = runners[index]()
        section_pass = all(c["status"] == "pass" for c in checks)
        all_pass = all_pass and section_pass
        report_sections.append(
            {
                "index": index,
                "title": title,
                "status": "pass" if section_pass else "fail",
                "checks": checks,
            }
        )
    return {
        "tool": "rigidity",
        "version": __version__,
        "input": {
            "command": "paper-audit",
            "sections": selected,
            "ledger-override": ledger,
        },
        "sections": report_sections,
        "overall": "pass" if all_pass else "fail",
    }
