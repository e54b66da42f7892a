"""Output checks behind the benchmark's error count.

Each job has a golden recorded at seed 0: its exit code, the SHA-256 of its
stdout, and its seed-invariant facts.  A job passes when its exit code
matches, its stdout digest matches whenever its command line is the recorded
one (tables and audit at every seed, everything at seed 0), and its facts
match at every seed.

The facts of a report are, for each key in `INVARIANT_KEYS`, the sorted list
of values that key takes anywhere in the report.  These are the parts a
relabeling of the group cannot change: group orders, multisets of class
sizes, centralizer orders and counts, census totals, orbit sizes and
stabilizers, verdicts, and oracle status with its (empty) mismatch list.
Class ids, representatives, character rows and the echoed input are left out
because a relabeling moves them.

Record the goldens with `python3 perfbench/checks.py --record`.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from collections import defaultdict
from pathlib import Path

import jobs

GOLDENS = Path(__file__).resolve().parent / "goldens.json"

INVARIANT_KEYS = frozenset(
    {
        "command",
        "mode",
        "order",
        "orders",
        "num-classes",
        "size",
        "element-order",
        "centralizer-order",
        "degrees",
        "count",
        "count-identity",
        "class-algebra-constant",
        "total",
        "stabilizer-order",
        "subgroup-order",
        "generated-subgroup-order",
        "orbit-count",
        "verdict",
        "triples",
        "mismatches",
        "oracle-diff",
        "oracle-status",
        "status",
        "overall",
    }
)

# one "key: value" line of the text format; header lines ("key:") have no value
_TEXT_LINE = re.compile(r"^\s*([a-z][a-z0-9-]*): (.+)$")


def facts(stdout: str) -> dict[str, list[str]]:
    """Seed-invariant facts of one report, text or canonical JSON."""
    found: dict[str, list[str]] = defaultdict(list)
    if stdout.startswith("{"):
        _walk(json.loads(stdout), found)
    else:
        for line in stdout.splitlines():
            match = _TEXT_LINE.match(line)
            if match and match.group(1) in INVARIANT_KEYS:
                found[match.group(1)].append(match.group(2))
    return {key: sorted(values) for key, values in sorted(found.items())}


def _is_scalar(value) -> bool:
    return not isinstance(value, (dict, list))


def _walk(node, found) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            if key in INVARIANT_KEYS and (
                _is_scalar(value) or all(_is_scalar(v) for v in value)
            ):
                found[key].append(json.dumps(value))
            else:
                _walk(value, found)
    elif isinstance(node, list):
        for value in node:
            _walk(value, found)


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def record(argv: list[str], code: int, stdout: str) -> dict:
    """The golden for one job, from one run of it."""
    return {"argv": argv, "exit": code, "sha256": digest(stdout), "facts": facts(stdout)}


def check(golden: dict, argv: list[str], code: int, stdout: str) -> str | None:
    """None when the job's output matches its golden, else the reason it fails."""
    if code != golden["exit"]:
        return f"exit code {code}, expected {golden['exit']}"
    if argv == golden["argv"] and digest(stdout) != golden["sha256"]:
        return "stdout differs from the golden"
    try:
        got = facts(stdout)
    except ValueError as exc:
        return f"unreadable report: {exc}"
    if got != golden["facts"]:
        keys = sorted(k for k in set(got) | set(golden["facts"]) if got.get(k) != golden["facts"].get(k))
        return f"seed-invariant facts differ at {', '.join(keys)}"
    return None


def load() -> dict[str, list[dict]]:
    with open(GOLDENS) as f:
        return json.load(f)


def record_all(workloads) -> dict[str, list[dict]]:
    """Goldens for every seed-0 job of the given workloads."""
    goldens = {}
    for name, workload in workloads.items():
        goldens[name] = []
        for argv in jobs.generate(workload.jobs, 0):
            code, stdout, _ = jobs.execute(argv)
            goldens[name].append(record(argv, code, stdout))
    return goldens


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/checks.py --record")
    GOLDENS.write_text(json.dumps(record_all(jobs.WORKLOADS), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")
