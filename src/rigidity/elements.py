"""Concrete group element realizations and row reduction mod p.

Two element kinds are supported: permutations of {0, ..., degree-1} and square
matrices over a prime field F_p.  Both expose the same small surface (product,
inverse, identity, canonical byte encoding) so the enumeration machinery in
`groups` can stay agnostic of the realization.

The public constructors (`Permutation(images)`, `Permutation.identity`,
`Permutation.from_cycles`, `PrimeFieldMatrix(p, entries)`,
`PrimeFieldMatrix.identity`, `PrimeFieldMatrix.from_flat`) validate their
input.  Products and inverses of valid elements are valid by construction, so
they are built unchecked: `object.__new__`, then the slots are set, with no
`sorted(images)` check and no reduction mod p.  `__mul__` still rejects
factors of different degree or modulus.  An element hashes as its images or
its entry rows, so a lookup in a group's index builds no key tuple.

A permutation of degree at most 256 stores its images as `bytes`: a product
is one `bytes.translate` call, an inverse one `bytes.maketrans` call, and
`bytes` caches its hash, so each index lookup after the first hashes nothing.
Larger degrees store an image tuple.  `encode` is the same for both.

`row_reduce` is the one Gauss–Jordan elimination over F_p: matrix inverses
here and the eigenspace split in `chartab` both call it.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Union

from .errors import IncompatibleGeneratorsError, SingularMatrixError


_new = object.__new__

# up to this degree images are bytes; _PAD[d] pads d images to a translate table
_BYTE_DEGREE = 256
_PAD = [bytes(_BYTE_DEGREE - d) for d in range(_BYTE_DEGREE + 1)]


def _images(ints):
    """Images in their stored form: bytes up to degree 256, else a tuple."""
    images = tuple(ints)
    return bytes(images) if len(images) <= _BYTE_DEGREE else images


@lru_cache(maxsize=None)
def _identity_images(degree: int):
    return _images(range(degree))


class Permutation:
    """A permutation of {0, ..., degree-1}, stored as its images (`_images`)."""

    __slots__ = ("degree", "images")

    def __init__(self, images):
        images = tuple(int(x) for x in images)
        degree = len(images)
        if sorted(images) != list(range(degree)):
            raise ValueError(f"not a permutation of 0..{degree - 1}: {images!r}")
        self.degree = degree
        self.images = _images(images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def _unchecked(cls, degree: int, images) -> "Permutation":
        """A permutation from images already valid and in their stored form."""
        result = _new(cls)
        result.degree = degree
        result.images = images
        return result

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        """Build a permutation from cycles, applied right to left.

        Each cycle is a sequence of distinct 0-based points; points absent from
        every cycle are fixed.
        """
        result = cls.identity(degree)
        for cycle in reversed(list(cycles)):
            cycle = [int(x) for x in cycle]
            if len(set(cycle)) != len(cycle):
                raise ValueError(f"cycle repeats a point: {cycle!r}")
            for x in cycle:
                if not 0 <= x < degree:
                    raise ValueError(f"point {x} outside degree {degree}")
            images = list(range(degree))
            for i, x in enumerate(cycle):
                images[x] = cycle[(i + 1) % len(cycle)]
            result = cls(images) * result
        return result

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Function composition: (self * other)(x) = self(other(x))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise IncompatibleGeneratorsError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        degree, s = self.degree, self.images
        # built inline, as in `_unchecked`: a classmethod call would cost
        # more than the translate
        result = _new(Permutation)
        result.degree = degree
        if degree <= _BYTE_DEGREE:
            result.images = other.images.translate(s + _PAD[degree])
        else:
            result.images = tuple([s[x] for x in other.images])
        return result

    def inverse(self) -> "Permutation":
        degree, s = self.degree, self.images
        if degree <= _BYTE_DEGREE:
            # a translate table that maps s[i] to i, cut back to the degree
            images = bytes.maketrans(s, _identity_images(degree))[:degree]
        else:
            inverse = [0] * degree
            for i, x in enumerate(s):
                inverse[x] = i
            images = tuple(inverse)
        return Permutation._unchecked(degree, images)

    def identity_element(self) -> "Permutation":
        return Permutation.identity(self.degree)

    def is_identity(self) -> bool:
        return self.images == _identity_images(self.degree)

    def encode(self) -> bytes:
        """Canonical encoding; lexicographic order matches image-tuple order.

        Every image is below the degree, so it fits the degree's byte width."""
        width = (self.degree.bit_length() + 7) // 8
        body = b"".join(x.to_bytes(width, "big") for x in self.images)
        return b"P" + self.degree.to_bytes(4, "big") + body

    def compatible_with(self, other) -> bool:
        return isinstance(other, Permutation) and other.degree == self.degree

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, each from its least point, fixed points included."""
        images = self.images
        seen = [False] * self.degree
        cycles = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            x = images[start]
            while x != start:
                cycle.append(x)
                seen[x] = True
                x = images[x]
            cycles.append(tuple(cycle))
        return cycles

    def cycle_string(self) -> str:
        """Disjoint cycle notation, fixed points omitted; identity is ()."""
        return "".join(
            "(" + " ".join(map(str, cycle)) + ")"
            for cycle in self.cycles()
            if len(cycle) > 1
        ) or "()"

    def __eq__(self, other):
        # equal images have equal length, so equal degree
        return type(other) is Permutation and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({self.cycle_string()}, degree={self.degree})"


def row_reduce(rows, ncols: int, p: int):
    """Reduced row echelon form over F_p, pivoting in the first ncols columns.

    Entries must lie in [0, p).  Returns (reduced rows, pivot columns).  The
    pivot columns ascend, and the row at index i of the result has a 1 in
    pivot column i and 0 in every other pivot column.  Columns from ncols on
    are carried along but never pivoted on, so they can hold right-hand
    sides.  The input is not modified.
    """
    m = [list(row) for row in rows]
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        pivot = next((i for i in range(row, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = pow(m[row][col], -1, p)
        m[row] = [x * inv % p for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[row])]
        pivots.append(col)
    return m, pivots


class PrimeFieldMatrix:
    """A square matrix over F_p with entries reduced to [0, p)."""

    __slots__ = ("p", "n", "entries")

    def __init__(self, p: int, entries):
        rows = tuple(tuple(int(x) % p for x in row) for row in entries)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix is not square")
        self.p = int(p)
        self.n = n
        self.entries = rows

    @classmethod
    def identity(cls, p: int, n: int) -> "PrimeFieldMatrix":
        return cls(p, _identity_rows(n))

    @classmethod
    def _unchecked(cls, p: int, n: int, entries: tuple) -> "PrimeFieldMatrix":
        """A matrix from rows already square and reduced to [0, p)."""
        result = _new(cls)
        result.p = p
        result.n = n
        result.entries = entries
        return result

    @classmethod
    def from_flat(cls, p: int, n: int, flat) -> "PrimeFieldMatrix":
        flat = list(flat)
        if len(flat) != n * n:
            raise ValueError(f"expected {n * n} entries, got {len(flat)}")
        return cls(p, [flat[i * n : (i + 1) * n] for i in range(n)])

    def __mul__(self, other: "PrimeFieldMatrix") -> "PrimeFieldMatrix":
        if not isinstance(other, PrimeFieldMatrix):
            return NotImplemented
        if other.p != self.p or other.n != self.n:
            raise IncompatibleGeneratorsError(
                f"matrix shape/modulus mismatch: ({self.n}, {self.p}) vs ({other.n}, {other.p})"
            )
        p = self.p
        cols = tuple(zip(*other.entries))
        return PrimeFieldMatrix._unchecked(
            p,
            self.n,
            tuple([tuple([sum(map(mul, row, col)) % p for col in cols]) for row in self.entries]),
        )

    def determinant(self) -> int:
        """Determinant mod p by fraction-free elimination."""
        p, n = self.p, self.n
        m = [list(row) for row in self.entries]
        det = 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col]), None)
            if pivot is None:
                return 0
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det % p
            det = det * m[col][col] % p
            inv = pow(m[col][col], -1, p)
            for r in range(col + 1, n):
                factor = m[r][col] * inv % p
                if factor:
                    m[r] = [(x - factor * y) % p for x, y in zip(m[r], m[col])]
        return det % p

    def inverse(self) -> "PrimeFieldMatrix":
        p, n = self.p, self.n
        m = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(self.entries)]
        reduced, pivots = row_reduce(m, n, p)
        if len(pivots) < n:
            raise SingularMatrixError(f"matrix is singular mod {p}: {self.entries!r}")
        return PrimeFieldMatrix._unchecked(p, n, tuple([tuple(row[n:]) for row in reduced]))

    def identity_element(self) -> "PrimeFieldMatrix":
        return PrimeFieldMatrix.identity(self.p, self.n)

    def is_identity(self) -> bool:
        return self.entries == _identity_rows(self.n)

    def encode(self) -> bytes:
        """Canonical encoding; lexicographic order matches row-major entry order."""
        width = 1 if self.p <= 0xFF else 2
        body = b"".join(
            x.to_bytes(width, "big") for row in self.entries for x in row
        )
        return b"M" + self.p.to_bytes(2, "big") + self.n.to_bytes(2, "big") + body

    def compatible_with(self, other) -> bool:
        return (
            isinstance(other, PrimeFieldMatrix)
            and other.p == self.p
            and other.n == self.n
        )

    def __eq__(self, other):
        return (
            type(other) is PrimeFieldMatrix
            and self.p == other.p
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"PrimeFieldMatrix(p={self.p}, {list(map(list, self.entries))})"


@lru_cache(maxsize=None)
def _identity_rows(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


GroupElement = Union[Permutation, PrimeFieldMatrix]
