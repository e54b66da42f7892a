"""Run one workload of the rigidity benchmark once.

    python3 perfbench/run.py --workload census --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout: the program is imported from that
checkout's `src/`, not from an installed package.  Workloads, their jobs and
the seed's relabeling are in `jobs.py`; the output checks are in `checks.py`.

Speed: every time below is a measured time divided by the time of a fixed
reference computation run next to it in the same process (`calibrate.py`),
times the reference's nominal `REFERENCE_S`.  So it is in seconds of the
baseline machine at its typical speed, whatever the machine's speed is at
that moment.

Set-up: `setup_s` is the median, over SETUP_PROBES fresh interpreters, of the
time from starting the interpreter until `rigidity.cli` is imported and the
workload's command lines are generated, scaled by the reference that the
probe interpreter runs right after.  (A reference timed in this process,
around the probe, follows the probe's speed worse than no reference at all:
the probe may run on the other CPU.)

Passes: a pass runs the workload's job list once, in a child forked after
the import, so each pass starts as cold as a fresh CLI process (no memo or
cache survives from an earlier pass) but pays no import.  Passes repeat
until about `--seconds` have gone by, at least MIN_PASSES of them; the last
pass starts only if it should end within half a pass of that.  Every pass
checks every job's output.

With `--trace 0` the metrics are end to end:
  wall_s        time to finish the job list once with exact, checked answers:
                the median over passes of the pass's summed, scaled job times
  setup_s       as above
  peak_rss_mb   the largest peak resident set of any pass's process
  success_rate  1 - error_rate: the share of attempted jobs that exited with
                the recorded code and matched their golden output
With `--trace 1` the first half of the time runs untraced passes and the
second half traced ones (see `spans.py`); the metrics are the per-layer ones
of `spans.METRICS`, each the median over traced passes, plus
`trace_overhead_s`, `wall_s` of the traced passes minus `wall_s` of the
untraced ones.  The spans are written to `.perfbench_out/`.  Raw, unscaled
times are printed for reference, but they are not metrics.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A checkout without the program's
sources exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import calibrate
import checks
import jobs
import spans

HERE = Path(__file__).resolve().parent
OUT = jobs.ROOT / ".perfbench_out"
SETUP_PROBES = 11
MIN_PASSES = 2

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import jobs\n"
    "jobs.import_cli()\n"
    "jobs.generate(jobs.find(sys.argv[2]).jobs, int(sys.argv[3]))\n"
    "done = time.monotonic()\n"
    "import calibrate\n"
    "print(done, calibrate.reference())\n"
)


def scaled(seconds: float, before: float, after: float) -> float:
    """A time in seconds of the baseline machine, from the references around it."""
    return seconds * calibrate.REFERENCE_S / ((before + after) / 2)


def measure_setup(workload: str, seed: int, probes: int = SETUP_PROBES) -> tuple[float, float]:
    """Median seconds from interpreter start to imported CLI and generated
    inputs: scaled, and raw."""
    times, refs = [], []
    for _ in range(probes):
        start = monotonic()
        done = subprocess.run(
            [sys.executable, "-c", _PROBE, str(HERE), workload, str(seed)],
            cwd=jobs.ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        end, ref = map(float, done.stdout.split())
        times.append(end - start)
        refs.append(ref)
    return (
        statistics.median(t * calibrate.REFERENCE_S / ref for t, ref in zip(times, refs)),
        statistics.median(times),
    )


def run_pass(argvs, goldens, trace_file=None) -> dict:
    """Run every job once, check each output; with a trace file, trace it."""
    tracer = spans.Tracer() if trace_file else None
    outputs, times = [], []
    gc.collect()
    refs = [calibrate.reference()]
    with tracer or contextlib.nullcontext():
        for k, argv in enumerate(argvs):
            if tracer:
                tracer.start_job(f"job{k}")
            start = perf_counter()
            outputs.append(jobs.execute(argv))
            times.append(perf_counter() - start)
            if tracer:
                tracer.end_job()
            refs.append(calibrate.reference())
    failures = []
    for k, (argv, golden, (code, stdout, err)) in enumerate(zip(argvs, goldens, outputs)):
        reason = checks.check(golden, argv, code, stdout)
        if reason:
            failures.append(f"job {k} ({' '.join(argv)[:60]}): {reason} {err.strip()[:200]}")
    result = {
        "times": times,
        "scaled": sum(scaled(t, refs[k], refs[k + 1]) for k, t in enumerate(times)),
        "failures": failures,
        "output_bytes": sum(len(stdout.encode()) for _, stdout, _ in outputs),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["layers"] = spans.layer_metrics(tracer)
        tracer.write(trace_file)
    return result


def forked(func, *args):
    """func(*args) in a forked child; its JSON-able result comes back by pipe."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            payload = json.dumps({"ok": func(*args)})
        except BaseException as exc:  # the child must never return into the caller
            payload = json.dumps({"error": f"{type(exc).__name__}: {exc}"})
        with os.fdopen(write_fd, "w") as f:
            f.write(payload)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"pass process died with status {status}")
    reply = json.loads(data)
    if "error" in reply:
        raise RuntimeError(f"pass failed: {reply['error']}")
    return reply["ok"]


def wall(passes) -> float:
    """Median over passes of the pass's scaled time."""
    return statistics.median(p["scaled"] for p in passes)


def raw(passes) -> str:
    """The unscaled pass times, for the log."""
    totals = [sum(p["times"]) for p in passes]
    return f"raw pass seconds: fastest {min(totals):.4f}, median {statistics.median(totals):.4f}"


def repeat_passes(budget: float, argvs, goldens, trace_file=None, least: int = 1) -> list[dict]:
    """Passes until about `budget` seconds are used; at least `least`."""
    results, lengths = [], []
    start = perf_counter()
    while True:
        begin = perf_counter()
        results.append(forked(run_pass, argvs, goldens, trace_file))
        lengths.append(perf_counter() - begin)
        if len(results) >= least and perf_counter() - start + statistics.median(lengths) / 2 >= budget:
            return results


def measure(workload: str, goldens, seed: int, seconds: float, trace: bool) -> dict:
    """One run: the metrics, their units, the jobs attempted and the failures."""
    argvs = jobs.generate(jobs.find(workload).jobs, seed)
    if trace:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"spans-{workload}-seed{seed}.jsonl"
        trace_file.unlink(missing_ok=True)
        plain = repeat_passes(seconds / 2, argvs, goldens)
        elapsed = sum(sum(p["times"]) for p in plain)
        traced = repeat_passes(seconds - elapsed, argvs, goldens, str(trace_file))
        passes = plain + traced
    else:
        setup, setup_raw = measure_setup(workload, seed)
        passes = repeat_passes(seconds, argvs, goldens, least=MIN_PASSES)
    failures = [f for p in passes for f in p["failures"]]
    attempted = len(passes) * len(argvs)
    if trace:
        metrics = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in spans.METRICS
            if name not in ("report.output_bytes", "trace_overhead_s")
        }
        metrics["report.output_bytes"] = statistics.median(p["output_bytes"] for p in traced)
        metrics["trace_overhead_s"] = wall(traced) - wall(plain)
        metrics = {name: metrics[name] for name in spans.METRICS}
        units = {name: unit for name, (unit, _) in spans.METRICS.items()}
        note = (f"per-layer metrics, median of {len(traced)} traced passes; spans in {trace_file}\n"
                f"untraced {raw(plain)}; traced {raw(traced)}")
    else:
        metrics = {
            "wall_s": wall(passes),
            "setup_s": setup,
            "peak_rss_mb": max(p["maxrss_kb"] for p in passes) / 1024,
            "success_rate": 1 - len(failures) / attempted,
        }
        units = END_TO_END
        note = (f"end-to-end metrics; error_rate = {len(failures) / attempted:.6f}\n"
                f"{raw(passes)}; raw setup seconds {setup_raw:.4f}")
    return {
        "metrics": metrics,
        "units": units,
        "passes": len(passes),
        "attempted": attempted,
        "failures": failures,
        "note": note,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one run of the rigidity benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        jobs.import_cli()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    goldens = checks.load()[args.workload]
    run = measure(args.workload, goldens, args.seed, args.seconds, bool(args.trace))
    failures, units = run["failures"], run["units"]
    print(f"{args.workload} seed {args.seed}: {run['passes']} passes, "
          f"{run['attempted']} jobs, {len(failures)} failed")
    for failure in failures[:10]:
        print(f"  FAIL {failure}", file=sys.stderr)
    print(run["note"])
    for name, value in run["metrics"].items():
        print(f"  {name:40s} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": run["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
