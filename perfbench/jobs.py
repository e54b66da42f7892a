"""The benchmark's workloads, how a seed relabels their groups, and how one
job is executed.

A job is one `rigidity` command line, run in-process through
`rigidity.cli.main` with stdout captured.  A group slot in a job holds either
a fixed spec string or a `PermSpec` / `MatSpec`.  At seed 0 every slot is
spelled exactly as written here, so each job's stdout can be compared byte
for byte with the golden recorded for it.  At any other seed a `PermSpec` or
`MatSpec` is rewritten as the same group conjugated by a permutation or an
invertible matrix drawn from the seed.  The result is isomorphic, so the work
and every seed-invariant fact stay the same, while the element order, the
class ids and the orbit representatives the program sees change.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from dataclasses import dataclass
from pathlib import Path

# the checkout under test: the benchmark runs from its root
ROOT = Path.cwd()
SRC = ROOT / "src"


@dataclass(frozen=True)
class PermSpec:
    """A permutation group given by generators, each a product of cycles."""

    text: str
    degree: int
    generators: tuple[tuple[tuple[int, ...], ...], ...]

    def relabel(self, rng: random.Random) -> str:
        points = list(range(self.degree))
        rng.shuffle(points)
        gens = ", ".join(
            "".join("(" + " ".join(str(points[x]) for x in cycle) + ")" for cycle in gen)
            for gen in self.generators
        )
        return f"Perm({self.degree}; {gens})"


def sym(n: int) -> PermSpec:
    """Sym(n), n >= 3, with the generators `rigidity.groups.sym_group` uses."""
    return PermSpec(f"Sym({n})", n, (((0, 1),), (tuple(range(n)),)))


def alt(n: int) -> PermSpec:
    """Alt(n), n >= 4, with the generators `rigidity.groups.alt_group` uses."""
    long_cycle = tuple(range(n)) if n % 2 else tuple(range(1, n))
    return PermSpec(f"Alt({n})", n, (((0, 1, 2),), (long_cycle,)))


@dataclass(frozen=True)
class MatSpec:
    """A group of 2x2 matrices mod p, each generator given row-major."""

    p: int
    generators: tuple[tuple[int, int, int, int], ...]

    @property
    def text(self) -> str:
        return _mat_text(self.p, self.generators)

    def relabel(self, rng: random.Random) -> str:
        p = self.p
        while True:
            a, b, c, d = (rng.randrange(p) for _ in range(4))
            det = (a * d - b * c) % p
            if det:
                break
        inv_det = pow(det, -1, p)
        inverse = (d * inv_det % p, -b * inv_det % p, -c * inv_det % p, a * inv_det % p)
        conjugated = tuple(
            _mat_mul(_mat_mul(inverse, g, p), (a, b, c, d), p) for g in self.generators
        )
        return _mat_text(p, conjugated)


def _mat_mul(x, y, p):
    return (
        (x[0] * y[0] + x[1] * y[2]) % p,
        (x[0] * y[1] + x[1] * y[3]) % p,
        (x[2] * y[0] + x[3] * y[2]) % p,
        (x[2] * y[1] + x[3] * y[3]) % p,
    )


def _mat_text(p, generators) -> str:
    gens = ", ".join("[" + " ".join(str(x) for x in g) + "]" for g in generators)
    return f"Mat({p}, 2; {gens})"


def sl2(p: int) -> MatSpec:
    """SL(2, p) from the transvection [1 1; 0 1] and [0 -1; 1 0]."""
    return MatSpec(p, ((1, 1, 0, 1), (0, p - 1, 1, 0)))


@dataclass(frozen=True)
class Workload:
    why: str
    jobs: tuple[tuple, ...]


# Census drives the counting layer with few tuples that have thousands of
# solutions and fill a cold Cayley-row memo; sweep uses it the opposite way,
# with every class triple of small groups scanned over a warm memo and counted
# by the character route too, on relabeled inputs; tables does no counting at all,
# so it must stay flat under a counting change; audit is the headline command,
# and its section 3 is the all-triples dual-route loop (the `oracle` command's
# loop) over five groups.  Every job takes well under a second, so that the
# reference timed around each job (see run.py) tracks the machine's speed.
WORKLOADS = {
    "census": Workload(
        why="class tuples with thousands of solutions over Sym(6) and SL(2,7): "
        "cold scan memo, orbit search, both element kinds",
        jobs=(
            ("rigid", sym(6), "2", "4", "5"),
            ("rigid", sl2(7), "3", "4", "7"),
        ),
    ),
    "sweep": Workload(
        why="oracle over every class triple of Alt(5), Sym(5) and SL(2,3): many "
        "small scans over a warm memo plus cyclotomic sums, relabeled by the seed",
        jobs=(
            ("oracle", alt(5)),
            ("oracle", sym(5)),
            ("oracle", sl2(3)),
        ),
    ),
    "tables": Workload(
        why="enumeration, classes, class matrices, split and lift up to order "
        "5040; no counting, so it must stay flat under a counting change",
        jobs=(
            ("chartab", "Sym(6)", "--oracle"),
            ("chartab", "Alt(7)"),
            ("chartab", sl2(7).text),
            ("classes", "Sym(7)"),
        ),
    ),
    "audit": Workload(
        why="paper-audit, one job per section: many small groups, all-triples "
        "counts by both routes, qsymbolic, audit glue and canonical JSON",
        jobs=tuple(("paper-audit", "--section", str(n)) for n in range(1, 7)),
    ),
}


# small enough for a quick self-test; not a benchmark workload
SELFTEST = Workload(
    why="tiny groups for the benchmark's own self-test",
    jobs=(
        ("rigid", sym(4), "2", "3", "4"),
        ("oracle", alt(4)),
        ("rigid", sl2(3), "3", "3", "4"),
        ("chartab", "Sym(4)", "--oracle"),
    ),
)


def find(name: str) -> Workload:
    return SELFTEST if name == "selftest" else WORKLOADS[name]


def generate(templates, seed: int) -> list[list[str]]:
    """The command lines a seed gives for a list of job templates."""
    rng = random.Random(seed)
    out = []
    for template in templates:
        argv = []
        for slot in template:
            if isinstance(slot, str):
                argv.append(slot)
            elif seed == 0:
                argv.append(slot.text)
            else:
                argv.append(slot.relabel(rng))
        out.append(argv)
    return out


def import_cli():
    """Import `rigidity.cli` from the checkout's own `src/`."""
    if not (SRC / "rigidity" / "cli.py").is_file():
        raise FileNotFoundError(f"no rigidity sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rigidity.cli

    return rigidity.cli


def execute(argv: list[str]) -> tuple[int, str, str]:
    """Run one command line in-process: (exit code, stdout, error text)."""
    main = import_cli().main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            return -1, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()
