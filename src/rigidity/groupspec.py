"""Parser for the textual group mini-language.

Accepted forms:

    Sym(n)  Alt(n)  Cyc(n)  Dih(n)  SO3(p)  Omega3(p)
    Perm(degree; (c ...) (c ...), (c ...), ...)
    Mat(p, n; [e e e ...], [e e e ...], ...)

Perm generators are comma-separated; each generator is one or more
parenthesized cycles of 0-based points (juxtaposed cycles multiply, applied
right to left).  Mat generators are comma-separated bracketed row-major entry
lists.  All integers are nonnegative decimals in the ASCII digits 0-9 only
(`str.isdigit` would also take other scripts' digits and superscripts);
whitespace is free between tokens.  Errors carry a 0-based character position.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GroupSpecError, UnknownConstructorError
from .groups import (
    DEFAULT_CAP,
    FiniteGroup,
    alt_group,
    cyc_group,
    dih_group,
    mat_group,
    omega3_group,
    perm_group,
    so3_group,
    sym_group,
)

# constructor name -> builder(spec, cap), in the order error messages list them
_BUILDERS = {
    "Sym": lambda spec, cap: sym_group(spec.params[0], cap),
    "Alt": lambda spec, cap: alt_group(spec.params[0], cap),
    "Cyc": lambda spec, cap: cyc_group(spec.params[0], cap),
    "Dih": lambda spec, cap: dih_group(spec.params[0], cap),
    "SO3": lambda spec, cap: so3_group(spec.params[0], cap),
    "Omega3": lambda spec, cap: omega3_group(spec.params[0], cap),
    "Perm": lambda spec, cap: perm_group(spec.params[0], spec.generators, cap),
    "Mat": lambda spec, cap: mat_group(*spec.params, spec.generators, cap),
}


@dataclass(frozen=True)
class GroupSpec:
    """Parse tree of one mini-language expression."""

    constructor: str
    params: tuple[int, ...]
    generators: tuple | None
    text: str

    def build(self, cap: int = DEFAULT_CAP) -> FiniteGroup:
        """Enumerate the group this spec describes."""
        builder = _BUILDERS.get(self.constructor)
        if builder is None:
            raise UnknownConstructorError(f"unknown constructor {self.constructor!r}")
        return builder(self, cap)


class _Cursor:
    """Character cursor with whitespace skipping and positioned errors."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> GroupSpecError:
        return GroupSpecError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while "0" <= self.peek() <= "9":
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a constructor name")
        return self.text[start : self.pos]

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_cycle(cur: _Cursor) -> tuple[int, ...]:
    cur.expect("(")
    points = []
    while True:
        cur.skip_ws()
        if cur.peek() == ")":
            cur.pos += 1
            return tuple(points)
        if not "0" <= cur.peek() <= "9":
            raise cur.error("expected a point or ')'")
        points.append(cur.integer())


def _parse_perm_generators(cur: _Cursor) -> tuple:
    generators = []
    while True:
        cycles = []
        cur.skip_ws()
        while cur.peek() == "(":
            cycles.append(_parse_cycle(cur))
            cur.skip_ws()
        if not cycles:
            raise cur.error("expected a cycle")
        generators.append(tuple(cycles))
        cur.skip_ws()
        if cur.peek() == ",":
            cur.pos += 1
            continue
        return tuple(generators)


def _parse_matrix(cur: _Cursor) -> tuple[int, ...]:
    cur.expect("[")
    entries = []
    while True:
        cur.skip_ws()
        if cur.peek() == "]":
            cur.pos += 1
            if not entries:
                raise cur.error("empty matrix")
            return tuple(entries)
        if not "0" <= cur.peek() <= "9":
            raise cur.error("expected an entry or ']'")
        entries.append(cur.integer())


def _parse_mat_generators(cur: _Cursor) -> tuple:
    generators = [_parse_matrix(cur)]
    while True:
        cur.skip_ws()
        if cur.peek() == ",":
            cur.pos += 1
            generators.append(_parse_matrix(cur))
            continue
        return tuple(generators)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse one mini-language expression into a GroupSpec."""
    cur = _Cursor(text)
    name = cur.word()
    if name not in _BUILDERS:
        raise UnknownConstructorError(
            f"unknown constructor {name!r} (expected one of {', '.join(_BUILDERS)})"
        )
    cur.expect("(")
    generators: tuple | None = None
    if name == "Perm":
        degree = cur.integer()
        cur.expect(";")
        generators = _parse_perm_generators(cur)
        params = (degree,)
    elif name == "Mat":
        p = cur.integer()
        cur.expect(",")
        n = cur.integer()
        cur.expect(";")
        generators = _parse_mat_generators(cur)
        params = (p, n)
        for flat in generators:
            if len(flat) != n * n:
                raise GroupSpecError(
                    f"matrix needs {n * n} entries for dimension {n}, got {len(flat)}"
                )
    else:
        params = (cur.integer(),)
    cur.expect(")")
    if not cur.at_end():
        raise cur.error("trailing input after group spec")
    return GroupSpec(constructor=name, params=params, generators=generators, text=text)


def build_group(text: str, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Parse and enumerate in one step."""
    return parse_group_spec(text).build(cap)
