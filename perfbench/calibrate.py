"""A fixed reference computation that measures how fast the machine is now.

On a small shared machine the CPU speed swings by up to 2x within seconds
and over minutes, so a raw time mostly measures how busy the machine was.
`run.py` therefore times this reference right before and right after every
job, and inside every set-up probe right after its import, and reports each
time as a multiple of the reference time next to it, scaled by `REFERENCE_S`.  The reference is pure
Python of the same kind the program runs (objects with `__mul__`,
`__hash__` and `__eq__` in dicts and sets, tuple indexing, modular and
rational arithmetic) and it never imports the program, so a change to the
program moves the reported time by its own speed-up or slow-down only.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# the reference's median time on the baseline machine (2 vCPUs, Python 3.11.7);
# a reported time is in seconds of that machine at its typical speed
REFERENCE_S = 0.025
REPEATS = 3


class _Perm:
    __slots__ = ("images", "_hash")

    def __init__(self, images):
        self.images = images
        self._hash = hash(images)

    def __mul__(self, other):
        s = self.images
        return _Perm(tuple(s[i] for i in other.images))

    def __eq__(self, other):
        return self.images == other.images

    def __hash__(self):
        return self._hash


def _closure(generators):
    identity = _Perm(tuple(range(len(generators[0].images))))
    seen = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s in generators:
                h = g * s
                if h not in seen:
                    seen[h] = len(seen)
                    nxt.append(h)
        frontier = nxt
    return seen


def _cycle_type(images):
    done = [False] * len(images)
    lengths = []
    for i in range(len(images)):
        if not done[i]:
            length, j = 0, i
            while not done[j]:
                done[j] = True
                j = images[j]
                length += 1
            lengths.append(length)
    return tuple(sorted(lengths))


def _matrix_orbit(p):
    """Orbit sizes of SL(2, p)-style products mod p, as plain tuples."""
    a, b = (1, 1, 0, 1), (0, p - 1, 1, 0)
    seen, frontier = {(1, 0, 0, 1)}, [(1, 0, 0, 1)]
    while frontier:
        nxt = []
        for x in frontier:
            for y in (a, b):
                z = (
                    (x[0] * y[0] + x[1] * y[2]) % p,
                    (x[0] * y[1] + x[1] * y[3]) % p,
                    (x[2] * y[0] + x[3] * y[2]) % p,
                    (x[2] * y[1] + x[3] * y[3]) % p,
                )
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return len(seen)


def work() -> tuple[int, int, Fraction]:
    """The reference computation; its answer is fixed."""
    n = 6
    group = _closure([_Perm((1, 0) + tuple(range(2, n))), _Perm(tuple(range(1, n)) + (0,))])
    sizes: dict[tuple, int] = {}
    for g in group:
        t = _cycle_type(g.images)
        sizes[t] = sizes.get(t, 0) + 1
    total = Fraction(0)
    for t, size in sorted(sizes.items()):
        total += Fraction(size * len(t), len(group) + len(t))
    return len(group), _matrix_orbit(11), total


EXPECTED = work()


def reference() -> float:
    """Seconds the reference computation takes now; checks its answer."""
    start = perf_counter()
    for _ in range(REPEATS):
        answer = work()
    elapsed = perf_counter() - start
    if answer != EXPECTED:
        raise AssertionError(f"reference computation gave {answer}, not {EXPECTED}")
    return elapsed
