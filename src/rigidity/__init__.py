"""Exact rigidity toolkit for small finite groups.

Enumerates groups from generators, computes conjugacy classes and exact
character tables, counts and enumerates class-tuple solutions of
x1 x2 ... xs = 1 by two independent routes, decomposes solution sets into
conjugation orbits, and checks a cited symbolic ledger for the Chevalley
groups G2(q).  Everything is exact: no floats, no tolerances.
"""

from __future__ import annotations

__version__ = "1.0.0"

from .chartab import CharacterTable, character_table, dixon_prime, verify_orthogonality
from .conjugacy import ClassTable, classes_of_element_order, conjugacy_classes, power_map
from .counting import (
    RigidityVerdict,
    abc_census,
    class_algebra_constant,
    enumerate_solutions,
    frobenius_count,
    orbit_decomposition,
    rigidity_verdict,
)
from .cyclotomic import Cyclotomic, zeta
from .elements import Permutation, PrimeFieldMatrix
from .groups import (
    FiniteGroup,
    alt_group,
    closure_enumerate,
    cyc_group,
    dih_group,
    mat_group,
    omega3_group,
    perm_group,
    so3_group,
    sym_group,
)
from .groupspec import build_group, parse_group_spec
from .murnaghan import murnaghan_nakayama
from .qsymbolic import (
    LEDGER_ONE,
    LEDGER_TWO,
    QPolynomial,
    QRationalFunction,
    dimension_criterion,
    lang_splitting_data,
    normalized_solution_count,
    orbit_mass,
)

__all__ = [
    "__version__",
    "CharacterTable",
    "character_table",
    "dixon_prime",
    "verify_orthogonality",
    "ClassTable",
    "classes_of_element_order",
    "conjugacy_classes",
    "power_map",
    "RigidityVerdict",
    "abc_census",
    "class_algebra_constant",
    "enumerate_solutions",
    "frobenius_count",
    "orbit_decomposition",
    "rigidity_verdict",
    "Cyclotomic",
    "zeta",
    "Permutation",
    "PrimeFieldMatrix",
    "FiniteGroup",
    "alt_group",
    "closure_enumerate",
    "cyc_group",
    "dih_group",
    "mat_group",
    "omega3_group",
    "perm_group",
    "so3_group",
    "sym_group",
    "build_group",
    "parse_group_spec",
    "murnaghan_nakayama",
    "LEDGER_ONE",
    "LEDGER_TWO",
    "QPolynomial",
    "QRationalFunction",
    "dimension_criterion",
    "lang_splitting_data",
    "normalized_solution_count",
    "orbit_mass",
]
