"""Command-line front end.

Subcommands: order, classes, chartab, count, triples, rigid, paper-audit,
oracle.  Reports are emitted either as canonical JSON ("structured", the
default for paper-audit and byte-deterministic for fixed inputs) or as
indented plain text (the default elsewhere).

Exit codes: 0 pass, 1 check failure, 2 usage or input error, 3 resource cap
or out of memory.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache

from . import __version__
from .audit import run_audit
from .chartab import character_table
from .conjugacy import ClassTable, conjugacy_classes
from .counting import (
    DEFAULT_ITERATION_CAP,
    abc_census,
    class_algebra_constant,
    count_equivalence,
    frobenius_count,
    rigidity_verdict,
    verdict_from_routes,
)
from .errors import (
    CapExceededError,
    NonIntegerResultError,
    SplitFailureError,
    VerificationError,
)
from .groups import DEFAULT_CAP
from .groupspec import parse_group_spec
from .murnaghan import murnaghan_nakayama
from .report import canonical_json, element_text, render_text

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# ASCII digits only: \d and int() would also take other Unicode digits
_SELECTOR_RE = re.compile(r"order([0-9]+)size([0-9]+)")


def _build(args):
    spec = parse_group_spec(args.spec)
    return spec, spec.build(_group_cap(args))


def _group_cap(args) -> int:
    return args.cap if args.cap is not None else DEFAULT_CAP


def _iteration_cap(args) -> int:
    return args.cap if args.cap is not None else DEFAULT_ITERATION_CAP


def _resolve_selector(T: ClassTable, token: str) -> int:
    if token.startswith("id:"):
        match = re.fullmatch(r"id:([0-9]+)", token)
        if match is None:
            raise ValueError(f"bad class selector {token!r}")
        i = int(match.group(1))
        if not 0 <= i < T.num_classes:
            raise ValueError(f"class id {i} outside 0..{T.num_classes - 1}")
        return i
    match = _SELECTOR_RE.fullmatch(token)
    if match is None:
        raise ValueError(
            f"bad class selector {token!r}; use id:N or orderNsizeM"
        )
    order, size = int(match.group(1)), int(match.group(2))
    hits = [
        cls.id
        for cls in T.classes
        if T.element_order_of_class[cls.id] == order and cls.size == size
    ]
    if not hits:
        raise ValueError(f"no class with element order {order} and size {size}")
    if len(hits) > 1:
        raise ValueError(
            f"selector {token!r} is ambiguous; candidate ids {hits}, use id:N"
        )
    return hits[0]


def _envelope(command: str, args, body: dict) -> dict:
    return {
        "tool": "rigidity",
        "version": __version__,
        "command": command,
        "input": args.spec,
        **body,
    }


def _class_summary(G, T: ClassTable) -> list[dict]:
    return [
        {
            "id": cls.id,
            "element-order": T.element_order_of_class[cls.id],
            "size": cls.size,
            "centralizer-order": cls.centralizer_order,
            "representative": element_text(G.element(cls.representative)),
        }
        for cls in T.classes
    ]


def cmd_order(args):
    spec, G = _build(args)
    body = {
        "order": G.order,
        "constructor": spec.constructor,
        "generators": [element_text(G.element(i)) for i in G.generator_indices],
    }
    return _envelope("order", args, body), EXIT_PASS


def cmd_classes(args):
    _, G = _build(args)
    T = conjugacy_classes(G)
    body = {
        "order": G.order,
        "num-classes": T.num_classes,
        "classes": _class_summary(G, T),
    }
    return _envelope("classes", args, body), EXIT_PASS


def cmd_chartab(args):
    spec = parse_group_spec(args.spec)
    # before any enumeration; Sym(0) is left to the build's own degree error
    if args.oracle and (spec.constructor != "Sym" or spec.params[0] > 7):
        raise ValueError("--oracle needs a Sym(n) group with n <= 7")
    G = spec.build(_group_cap(args))
    T = conjugacy_classes(G)
    CT = character_table(G, T)
    body = {
        "order": G.order,
        "num-classes": T.num_classes,
        "classes": _class_summary(G, T),
        "degrees": [row.degree for row in CT.rows],
        "rows": [list(row.values) for row in CT.rows],
    }
    code = EXIT_PASS
    if args.oracle:
        oracle = murnaghan_nakayama(T)
        diff = []
        for i, (row, orow) in enumerate(zip(CT.rows, oracle.rows)):
            for k in range(CT.num_classes):
                if row.values[k] != orow.values[k]:
                    diff.append(
                        {
                            "row": i,
                            "class": k,
                            "eigenvalue-route": row.values[k],
                            "combinatorial-route": orow.values[k],
                        }
                    )
        body["oracle-diff"] = diff
        body["oracle-status"] = "pass" if not diff else "fail"
        if diff:
            code = EXIT_CHECK_FAILURE
    return _envelope("chartab", args, body), code


def cmd_count(args):
    _, G = _build(args)
    T = conjugacy_classes(G)
    CT = character_table(G, T)
    ids = tuple(_resolve_selector(T, token) for token in args.selectors)
    count = frobenius_count(CT, ids)
    body = {
        "class-ids": list(ids),
        "class-sizes": [T.classes[i].size for i in ids],
        "count": count,
    }
    if len(ids) == 3:
        constant = class_algebra_constant(CT, *ids)
        body["class-algebra-constant"] = constant
        body["count-identity"] = count == T.classes[ids[2]].size * constant
    return _envelope("count", args, body), EXIT_PASS


def _orbit_body(G, orbit) -> dict:
    return {
        "representative": [element_text(G.element(x)) for x in orbit.representative],
        "size": orbit.size,
        "stabilizer-order": orbit.stabilizer_order,
    }


def _census_body(G, census) -> dict:
    return {
        "orders": list(census.orders),
        "per-tuple": [
            {"class-ids": list(ids), "count": n} for ids, n in census.per_tuple
        ],
        "total": census.total,
        "orbits": [
            {
                **_orbit_body(G, orbit),
                "subgroup-order": orbit.subgroup_order,
                "subgroup-fingerprint": orbit.subgroup_fingerprint,
            }
            for orbit in census.orbits
        ],
    }


def cmd_triples(args):
    _, G = _build(args)
    T = conjugacy_classes(G)
    census = abc_census(G, T, args.a, args.b, args.c, cap=_iteration_cap(args))
    body = {"census": _census_body(G, census)}
    return _envelope("triples", args, body), EXIT_PASS


def _verdict_body(verdict) -> dict:
    body = {"count": verdict.count, "verdict": verdict.kind}
    if verdict.kind == "rigid":
        body["stabilizer-order"] = verdict.stabilizer_order
    if verdict.kind == "not-rigid":
        body["orbit-count"] = verdict.num_orbits
    return body


def cmd_rigid(args):
    _, G = _build(args)
    T = conjugacy_classes(G)
    CT = character_table(G, T)
    cap = _iteration_cap(args)
    tokens = args.selectors
    if all(re.fullmatch(r"[0-9]+", t) for t in tokens):
        if len(tokens) != 3:
            raise ValueError("order mode takes exactly three element orders")
        a, b, c = (int(t) for t in tokens)
        census = abc_census(G, T, a, b, c, cap=cap)
        verdicts = []
        for ids, orbits in census.decompositions:
            verdict = verdict_from_routes(ids, frobenius_count(CT, ids), orbits)
            verdicts.append({"class-ids": list(ids), **_verdict_body(verdict)})
        body = {
            "mode": "orders",
            "census": _census_body(G, census),
            "per-tuple-verdicts": verdicts,
        }
        return _envelope("rigid", args, body), EXIT_PASS
    ids = tuple(_resolve_selector(T, token) for token in tokens)
    verdict = rigidity_verdict(G, T, CT, ids, cap=cap)
    body = {"mode": "classes", "class-ids": list(ids), **_verdict_body(verdict)}
    if verdict.kind != "empty":
        body["orbits"] = [
            {
                **_orbit_body(G, orbit),
                "generated-subgroup-order": len(
                    G.subgroup_generated(orbit.representative[:2])
                ),
            }
            for orbit in verdict.orbits
        ]
    return _envelope("rigid", args, body), EXIT_PASS


def cmd_oracle(args):
    _, G = _build(args)
    T = conjugacy_classes(G)
    CT = character_table(G, T)
    triples, mismatches = count_equivalence(G, T, CT, _iteration_cap(args))
    body = {
        "num-classes": T.num_classes,
        "triples": triples,
        "mismatches": mismatches[:10],
        "status": "pass" if not mismatches else "fail",
    }
    code = EXIT_PASS if not mismatches else EXIT_CHECK_FAILURE
    return _envelope("oracle", args, body), code


def cmd_paper_audit(args):
    report = run_audit(sections=args.sections, ledger=args.ledger)
    code = EXIT_PASS if report["overall"] == "pass" else EXIT_CHECK_FAILURE
    return report, code


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process:
    `parse_args` returns a new namespace each call and changes no parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("structured", "text"),
        default=None,
        help="structured = canonical JSON; text = indented listing",
    )
    common.add_argument(
        "--cap",
        type=int,
        default=None,
        help=(
            f"bounds both the group's elements (default {DEFAULT_CAP:,}) and "
            f"each scan's iterations (default {DEFAULT_ITERATION_CAP:,}); a cap "
            "below the group order exits 3 before any scan"
        ),
    )
    parser = argparse.ArgumentParser(
        prog="rigidity",
        description="exact rigidity and generation checks for small finite groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", parents=[common], help="group order from a spec")
    p.add_argument("spec")
    p = sub.add_parser("classes", parents=[common], help="conjugacy class table")
    p.add_argument("spec")
    p = sub.add_parser("chartab", parents=[common], help="exact character table")
    p.add_argument("spec")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="diff against the combinatorial route (Sym(n), n <= 7)",
    )
    p = sub.add_parser("count", parents=[common], help="count class-tuple solutions")
    p.add_argument("spec")
    p.add_argument("selectors", nargs="+", metavar="SELECTOR")
    p = sub.add_parser("triples", parents=[common], help="(a,b,c)-triple census")
    p.add_argument("spec")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p = sub.add_parser("rigid", parents=[common], help="rigidity verdict")
    p.add_argument("spec")
    p.add_argument("selectors", nargs="+", metavar="SELECTOR")
    p = sub.add_parser(
        "paper-audit", parents=[common], help="run the full audit report"
    )
    p.add_argument(
        "--section",
        action="append",
        type=int,
        dest="sections",
        help="run only this section (repeatable)",
    )
    p.add_argument("--ledger", default=None, help="ledger override file (JSON)")
    p = sub.add_parser(
        "oracle", parents=[common], help="count-equivalence suite over all triples"
    )
    p.add_argument("spec")
    return parser


_COMMANDS = {
    "order": cmd_order,
    "classes": cmd_classes,
    "chartab": cmd_chartab,
    "count": cmd_count,
    "triples": cmd_triples,
    "rigid": cmd_rigid,
    "paper-audit": cmd_paper_audit,
    "oracle": cmd_oracle,
}

# every typed input error (GroupSpecError, SingularMatrixError, ...) is a ValueError
_INPUT_ERRORS = (ValueError, IndexError)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return EXIT_PASS
        return EXIT_USAGE
    if args.cap is not None and args.cap < 1:
        print("error: --cap must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        report, code = _COMMANDS[args.command](args)
    except MemoryError:
        report = None  # reported below, once the traceback's frames are freed
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SplitFailureError, NonIntegerResultError, VerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    if report is None:
        print("error: out of memory", file=sys.stderr)
        return EXIT_CAP
    fmt = args.format
    if fmt is None:
        fmt = "structured" if args.command == "paper-audit" else "text"
    if fmt == "structured":
        sys.stdout.write(canonical_json(report))
    else:
        sys.stdout.write(render_text(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
