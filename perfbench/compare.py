"""Collect result sets, check their spread, and compare two of them.

    python3 perfbench/compare.py run OUT CHECKOUT [CHECKOUT2] [--runs 10]
    python3 perfbench/compare.py spread OUT/a.jsonl
    python3 perfbench/compare.py diff OUT/a.jsonl OUT/b.jsonl

`run` runs this copy of the benchmark against one or two checkouts (each a
directory with the program's `src/`), `--runs` times on every workload, the
i-th time with seed `--first-seed + i` on both.  With two checkouts it
alternates which one runs first.  Results are appended to `OUT/a.jsonl` and,
for the second checkout, `OUT/b.jsonl`, one line a run.

`spread` prints, per workload and metric, the median, the quartiles and the
spread (quartile distance over median) next to the metric's bound.

`diff` compares a parent result set with a change result set made by the
same benchmark code, runs paired by workload and seed.  One row per workload
and end-to-end metric, with each side's median and quartiles and the share
of pairs the change won (ties count for neither).  The verdict:
  gain        the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's quartile distance
  better      every change run beats every parent run
  unresolved  a side's spread exceeds the metric's bound
  REGRESSION  the change's median is worse than the parent's by more
              than the bound
  same        otherwise: no worse than the bound allows
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def run(out: Path, checkouts: list[Path], runs: int, first_seed: int, workloads, trace: int) -> None:
    out.mkdir(parents=True, exist_ok=True)
    sides = list(zip(checkouts, ("a", "b")))
    for i in range(runs):
        seed = first_seed + i
        for workload in workloads:
            for checkout, label in sides[:: -1 if i % 2 else 1]:
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
                ]
                done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=900)
                sys.stdout.write(done.stdout)
                if done.returncode != 0:
                    sys.exit(f"{label}: {workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
                result = json.loads(done.stdout.strip().splitlines()[-1])
                line = {"workload": workload, "seed": seed, "trace": trace, "result": result}
                with open(out / f"{label}.jsonl", "a") as f:
                    f.write(json.dumps(line) + "\n")


def load(path: Path) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> seed -> value."""
    values: dict = defaultdict(dict)
    for line in path.read_text().splitlines():
        row = json.loads(line)
        for name, metric in row["result"]["metrics"].items():
            values[row["workload"], name][row["seed"]] = metric["value"]
    return values


def quartiles(values) -> tuple[float, float, float]:
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def spread_table(path: Path) -> None:
    print(f"{'workload':8s} {'metric':36s} {'n':>3s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
    for (workload, name), by_seed in sorted(load(path).items()):
        q1, median, q3 = quartiles(by_seed.values())
        bound = METRICS.get(name, {}).get("bound")
        note = ""
        if bound is not None:
            s = spread(by_seed.values())
            note = "steady" if s < bound / 3 else "within bound" if s <= bound else "TOO WIDE"
        print(
            f"{workload:8s} {name:36s} {len(by_seed):3d} {median:14.6f} {q1:14.6f} {q3:14.6f} "
            f"{spread(by_seed.values()):8.4f} {bound if bound is not None else '-':>6} {note}"
        )


def verdict(parent: dict[int, float], change: dict[int, float], better: str, bound: float):
    """(win share, verdict) for one workload and metric."""
    sign = 1 if better == "lower" else -1
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (change[s] - parent[s]) < 0 for s in seeds)
    share = wins / len(seeds) if seeds else 0.0
    p1, pm, p3 = quartiles(parent.values())
    _, cm, _ = quartiles(change.values())
    if share >= 0.9 and sign * (cm - pm) < 0 and abs(cm - pm) > p3 - p1:
        return share, "gain"
    if all(sign * (c - p) < 0 for c in change.values() for p in parent.values()):
        return share, "better"
    if max(spread(parent.values()), spread(change.values())) > bound:
        return share, "unresolved"
    worse = sign * (cm - pm) / pm if pm else 0.0
    return share, "REGRESSION" if worse > bound else "same"


def diff_table(parent_path: Path, change_path: Path) -> None:
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':8s} {'metric':14s} {'pairs':>5s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'wins':>5s}  verdict")
    for metric in SPEC["end_to_end"]:
        for workload in (w["name"] for w in SPEC["workloads"]):
            p, c = parent.get((workload, metric["name"])), change.get((workload, metric["name"]))
            if not p or not c:
                continue
            share, word = verdict(p, c, metric["better"], metric["bound"])
            pq, cq = quartiles(p.values()), quartiles(c.values())
            pairs = len(set(p) & set(c))
            print(
                f"{workload:8s} {metric['name']:14s} {pairs:5d} "
                f"{pq[1]:12.6f} [{pq[0]:10.6f}, {pq[2]:10.6f}] {cq[1]:12.6f} [{cq[0]:10.6f}, {cq[2]:10.6f}] "
                f"{share:5.2f}  {word}{'' if pairs >= 10 else ' (fewer than 10 pairs)'}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="collect result sets")
    p.add_argument("out", type=Path)
    p.add_argument("checkouts", type=Path, nargs="+")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("spread", help="spread of each metric in one result set")
    p.add_argument("results", type=Path)
    p = sub.add_parser("diff", help="compare a parent and a change result set")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        if len(args.checkouts) > 2:
            parser.error("at most two checkouts")
        run(args.out, args.checkouts, args.runs, args.first_seed, args.workloads, args.trace)
    elif args.command == "spread":
        spread_table(args.results)
    else:
        diff_table(args.parent, args.change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
