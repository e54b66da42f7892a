"""Traced-run mode: spans and counters recorded from outside the program.

`Tracer` wraps the public functions and methods listed in `SPANS`, the hot
methods listed in `COUNTERS`, and `FiniteGroup.__init__`, then rebinds every
`rigidity.*` module attribute and class attribute that refers to a wrapped
function.  Rebinding every alias matters: `cli` and `audit` import names
directly (`from .counting import enumerate_solutions`), and `Cyclotomic`
binds `__radd__` and `__rmul__` to the same functions as `__add__` and
`__mul__`.  Nothing under `src/` changes.

Each span records its name, start, end, parent span and job id, and stays in
memory until `write` is called.  A function that recurses into itself (such
as `report.render_text`) gets one span for the outermost call.  Counters are
per pass; they are too hot for a span per call.

`layer_metrics` turns one pass's spans and counters into the per-layer
metrics in `METRICS`.  A time metric is the summed duration of the named
spans; a "self" time subtracts the time covered by direct child spans; a
layer time sums the spans of a module that no span of the same module
encloses.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter
from types import FunctionType

# module -> the functions and methods that get a span
SPANS = {
    "groupspec": ("parse_group_spec", "build_group", "GroupSpec.build"),
    "groups": (
        "closure_enumerate",
        "so3_enumerate",
        "sym_group",
        "alt_group",
        "cyc_group",
        "dih_group",
        "perm_group",
        "mat_group",
        "omega3_group",
        "so3_group",
        "FiniteGroup.from_closed_elements",
        "FiniteGroup.centralizer",
        "FiniteGroup.subgroup_generated",
        "FiniteGroup.derived_subgroup",
        "FiniteGroup.subgroup",
        "FiniteGroup.fingerprint",
    ),
    "conjugacy": ("conjugacy_classes", "power_map"),
    "chartab": ("class_matrices", "character_table", "verify_orthogonality"),
    "murnaghan": ("murnaghan_nakayama", "align_to_class_table"),
    "counting": (
        "frobenius_count",
        "class_algebra_constant",
        "enumerate_solutions",
        "orbit_decomposition",
        "rigidity_verdict",
        "generated_subgroup_report",
        "abc_census",
    ),
    "report": ("canonical_json", "render_text"),
    "audit": ("run_audit", "load_ledger_overrides"),
    "cli": ("main",),
}
# every public function and method of these modules gets a span
WHOLE_MODULES = ("qsymbolic",)

# counter -> (module, method); aliases of the method are counted too
COUNTERS = {
    "groups.mult_calls": ("groups", "FiniteGroup.mult"),
    "groups.conjugate_calls": ("groups", "FiniteGroup.conjugate"),
    "elements.perm_products": ("elements", "Permutation.__mul__"),
    "elements.matrix_products": ("elements", "PrimeFieldMatrix.__mul__"),
    "cyclotomic.mul_calls": ("cyclotomic", "Cyclotomic.__mul__"),
    "cyclotomic.add_calls": ("cyclotomic", "Cyclotomic.__add__"),
    "cyclotomic.div_calls": ("cyclotomic", "Cyclotomic.__truediv__"),
}


def _resolve(module, path: str):
    """(owner, attribute name, raw attribute) for "func" or "Class.method"."""
    owner = module
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr)
    return None if raw is None else (owner, attr, raw)


def _function(raw):
    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    return func if isinstance(func, FunctionType) else None


def _public_members(module):
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        if isinstance(value, FunctionType) and value.__module__ == module.__name__:
            yield name
        elif isinstance(value, type) and value.__module__ == module.__name__:
            for attr, raw in vars(value).items():
                if not attr.startswith("_") and _function(raw) is not None:
                    yield f"{name}.{attr}"


class Tracer:
    """Patch `rigidity` on entry, restore it on exit; collect spans and counts."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.counts: Counter = Counter()
        self.scans = {"candidates": 0, "solutions": 0, "repeats": 0}
        self.dixon_inputs: list[tuple[int, int]] = []
        self.rows_memoized = 0
        self._job = None
        self._groups: list = []
        self._scanned: set = set()
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._restore: list[tuple] = []

    # -- patching -----------------------------------------------------------
    def __enter__(self) -> "Tracer":
        modules = {
            name: importlib.import_module(f"rigidity.{name}")
            for name in set(SPANS) | set(WHOLE_MODULES) | {m for m, _ in COUNTERS.values()}
        }
        targets = [(m, p) for m, paths in SPANS.items() for p in paths]
        targets += [(m, p) for m in WHOLE_MODULES for p in _public_members(modules[m])]
        wrappers: dict[FunctionType, FunctionType] = {}
        for module, path in targets:
            found = _resolve(modules[module], path)
            func = found and _function(found[2])
            if func is not None:
                wrappers[func] = self._span(f"{module}.{path}", func)
        for counter, (module, path) in COUNTERS.items():
            found = _resolve(modules[module], path)
            func = found and _function(found[2])
            if func is not None:
                wrappers[func] = self._counter(counter, func)
        init = modules["groups"].FiniteGroup.__init__
        wrappers[init] = self._group_init(init)

        for name, module in list(sys.modules.items()):
            if module is None or not (name == "rigidity" or name.startswith("rigidity.")):
                continue
            self._rebind(module, wrappers)
            for value in list(vars(module).values()):
                if isinstance(value, type) and value.__module__ == name:
                    self._rebind(value, wrappers)
        return self

    def _rebind(self, owner, wrappers) -> None:
        for attr, raw in list(vars(owner).items()):
            func = _function(raw)
            if func is None or func not in wrappers:
                continue
            wrapped = wrappers[func]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, raw))

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- wrappers -----------------------------------------------------------
    def _span(self, name: str, func):
        tracer = self
        after = _AFTER.get(name)
        signature = inspect.signature(func) if after else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if name in tracer._open:
                return func(*args, **kwargs)
            stack = tracer._stack
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, tracer._job]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            tracer._open.add(name)
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                tracer._open.discard(name)
            if after:
                try:
                    after(tracer, signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError):
                    pass  # the program changed the call's shape; the metric reads 0
            return result

        return wrapper

    def _counter(self, name: str, func):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def _group_init(self, func):
        groups = self._groups

        @functools.wraps(func)
        def wrapper(group, *args, **kwargs):
            func(group, *args, **kwargs)
            groups.append(group)

        return wrapper

    # -- jobs ---------------------------------------------------------------
    def start_job(self, job_id: str) -> None:
        self._job = job_id
        self._scanned.clear()

    def end_job(self) -> None:
        """Read the memoized Cayley rows off every group the job built."""
        for group in self._groups:
            # the lazy row memo is private; a program without one reads as 0
            self.rows_memoized += sum(row is not None for row in getattr(group, "_rows", ()))
        self._groups.clear()
        self._job = None

    def write(self, path) -> None:
        """Write the spans out, one JSON object a line."""
        with open(path, "a") as f:
            for name, start, end, parent, job in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job}) + "\n")


def _after_scan(tracer: Tracer, arguments, result) -> None:
    sizes = [arguments["T"].classes[i].size for i in arguments["class_ids"]]
    tracer.scans["candidates"] += math.prod(sizes) // max(sizes)
    tracer.scans["solutions"] += len(result)
    key = (id(arguments["G"]), tuple(arguments["class_ids"]))
    if key in tracer._scanned:
        tracer.scans["repeats"] += 1
    tracer._scanned.add(key)


def _after_character_table(tracer: Tracer, arguments, result) -> None:
    T = arguments["T"]
    tracer.dixon_inputs.append((math.lcm(*T.element_order_of_class), T.group.order))


_AFTER = {
    "counting.enumerate_solutions": _after_scan,
    "chartab.character_table": _after_character_table,
}


# name -> (unit, better); the order is the order of the printed table
METRICS = {
    "groups.closure_enumerate_s": ("s", "lower"),
    "groups.mult_calls": ("count", "lower"),
    "groups.rows_memoized": ("count", "lower"),
    "elements.perm_products": ("count", "lower"),
    "elements.matrix_products": ("count", "lower"),
    "groups.conjugate_calls": ("count", "lower"),
    "groups.derived_subgroup_s": ("s", "lower"),
    "groups.fingerprint_s": ("s", "lower"),
    "conjugacy.conjugacy_classes_s": ("s", "lower"),
    "chartab.class_matrices_s": ("s", "lower"),
    "chartab.character_table_s": ("s", "lower"),
    "chartab.dixon_prime": ("prime", "lower"),
    "murnaghan.oracle_s": ("s", "lower"),
    "cyclotomic.mul_calls": ("count", "lower"),
    "cyclotomic.add_calls": ("count", "lower"),
    "cyclotomic.div_calls": ("count", "lower"),
    "counting.frobenius_count_s": ("s", "lower"),
    "counting.class_algebra_constant_s": ("s", "lower"),
    "counting.char_route_calls": ("count", "lower"),
    "counting.enumerate_solutions_s": ("s", "lower"),
    "counting.scan_calls": ("count", "lower"),
    "counting.scan_candidates": ("count", "lower"),
    "counting.scan_solutions": ("count", "higher"),
    "counting.scan_yield": ("ratio", "higher"),
    "counting.scan_repeat_ratio": ("ratio", "lower"),
    "counting.orbit_decomposition_s": ("s", "lower"),
    "counting.generated_subgroup_report_s": ("s", "lower"),
    "report.canonical_json_s": ("s", "lower"),
    "report.render_text_s": ("s", "lower"),
    "report.output_bytes": ("bytes", "lower"),
    "audit.run_audit_self_s": ("s", "lower"),
    "qsymbolic_s": ("s", "lower"),
    "cli.main_self_s": ("s", "lower"),
    "trace_overhead_s": ("s", "lower"),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except the two the runner measures
    (`report.output_bytes` and `trace_overhead_s`)."""
    from rigidity.chartab import dixon_prime

    spans = tracer.spans
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            covered[parent] += end - start

    def self_time(name: str) -> float:
        return sum(end - start - covered[i] for i, (n, start, end, _, _) in enumerate(spans) if n == name)

    def layer_time(module: str) -> float:
        prefix = module + "."
        return sum(
            end - start
            for name, start, end, parent, _ in spans
            if name.startswith(prefix) and (parent < 0 or not spans[parent][0].startswith(prefix))
        )

    scans = calls["counting.enumerate_solutions"]
    candidates = tracer.scans["candidates"]
    return {
        "groups.closure_enumerate_s": total["groups.closure_enumerate"],
        "groups.mult_calls": tracer.counts["groups.mult_calls"],
        "groups.rows_memoized": tracer.rows_memoized,
        "elements.perm_products": tracer.counts["elements.perm_products"],
        "elements.matrix_products": tracer.counts["elements.matrix_products"],
        "groups.conjugate_calls": tracer.counts["groups.conjugate_calls"],
        "groups.derived_subgroup_s": total["groups.FiniteGroup.derived_subgroup"],
        "groups.fingerprint_s": total["groups.FiniteGroup.fingerprint"],
        "conjugacy.conjugacy_classes_s": total["conjugacy.conjugacy_classes"],
        "chartab.class_matrices_s": total["chartab.class_matrices"],
        "chartab.character_table_s": self_time("chartab.character_table"),
        "chartab.dixon_prime": max((dixon_prime(e, n) for e, n in tracer.dixon_inputs), default=0),
        "murnaghan.oracle_s": layer_time("murnaghan"),
        "cyclotomic.mul_calls": tracer.counts["cyclotomic.mul_calls"],
        "cyclotomic.add_calls": tracer.counts["cyclotomic.add_calls"],
        "cyclotomic.div_calls": tracer.counts["cyclotomic.div_calls"],
        "counting.frobenius_count_s": total["counting.frobenius_count"],
        "counting.class_algebra_constant_s": total["counting.class_algebra_constant"],
        "counting.char_route_calls": calls["counting.frobenius_count"] + calls["counting.class_algebra_constant"],
        "counting.enumerate_solutions_s": total["counting.enumerate_solutions"],
        "counting.scan_calls": scans,
        "counting.scan_candidates": candidates,
        "counting.scan_solutions": tracer.scans["solutions"],
        "counting.scan_yield": tracer.scans["solutions"] / candidates if candidates else 0.0,
        "counting.scan_repeat_ratio": tracer.scans["repeats"] / scans if scans else 0.0,
        "counting.orbit_decomposition_s": total["counting.orbit_decomposition"],
        "counting.generated_subgroup_report_s": total["counting.generated_subgroup_report"],
        "report.canonical_json_s": total["report.canonical_json"],
        "report.render_text_s": total["report.render_text"],
        "audit.run_audit_self_s": self_time("audit.run_audit"),
        "qsymbolic_s": layer_time("qsymbolic"),
        "cli.main_self_s": self_time("cli.main"),
    }
