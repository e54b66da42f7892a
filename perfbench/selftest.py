"""Fast self-test of the benchmark, on tiny groups.

    python3 perfbench/selftest.py      # from the root of a checkout

It records goldens for the tiny `jobs.SELFTEST` workload at seed 0 and
checks that:
- a relabeling seed changes the command lines but passes every output check;
- an untraced and a traced run emit exactly the end-to-end and per-layer
  metrics BENCHMARK.json names, with its units, and the error rate is 0;
- the negative control, a tampered expectation, makes the error rate > 0;
- `run.py` exits nonzero and prints no result where there are no sources.
Exit status 0 when all hold.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import checks
import jobs
import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SEED = 5


def expect(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def main() -> int:
    failures: list[str] = []
    jobs.import_cli()
    goldens = checks.record_all({"selftest": jobs.SELFTEST})["selftest"]
    expect(all(g["exit"] == 0 for g in goldens), "every tiny job exits 0 at seed 0", failures)

    relabeled = jobs.generate(jobs.SELFTEST.jobs, SEED)
    expect(
        relabeled != [g["argv"] for g in goldens] and relabeled == jobs.generate(jobs.SELFTEST.jobs, SEED),
        f"seed {SEED} relabels the groups, the same way every time",
        failures,
    )

    plain = run.measure("selftest", goldens, SEED, 0.1, trace=False)
    expect(plain["units"] == units("end_to_end"), "untraced run emits every end-to-end metric", failures)
    expect(
        not plain["failures"] and plain["metrics"]["success_rate"] == 1,
        f"error rate 0 at seed {SEED} {plain['failures'][:1]}",
        failures,
    )
    traced = run.measure("selftest", goldens, SEED, 0.1, trace=True)
    expect(traced["units"] == units("per_layer"), "traced run emits every per-layer metric", failures)
    expect(not traced["failures"], "traced run passes every output check", failures)
    layers = traced["metrics"]
    expect(
        layers["counting.scan_calls"] > 0 and layers["groups.mult_calls"] > 0
        and layers["cyclotomic.mul_calls"] > 0 and layers["chartab.dixon_prime"] > 0,
        "traced run counts scans, products and cyclotomic operations",
        failures,
    )

    tampered = copy.deepcopy(goldens)
    tampered[0]["facts"]["total"] = ["1"]
    control = run.measure("selftest", tampered, SEED, 0.1, trace=False)
    expect(
        control["metrics"]["success_rate"] < 1 and len(control["failures"]) == control["passes"],
        "negative control: a tampered expectation makes the error rate > 0",
        failures,
    )

    empty = run.OUT / "selftest-no-sources"
    empty.mkdir(parents=True, exist_ok=True)
    done = subprocess.run(
        [sys.executable, str(Path(run.__file__).resolve()), "--workload", "audit", "--seed", "0", "--seconds", "1"],
        cwd=empty, capture_output=True, text=True, timeout=180,
    )
    expect(
        done.returncode != 0 and '"metrics"' not in done.stdout,
        "run.py without sources exits nonzero and prints no result",
        failures,
    )
    empty.rmdir()

    print("selftest:", "all checks pass" if not failures else f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
