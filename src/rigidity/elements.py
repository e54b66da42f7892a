"""Group elements as raw keys, their arithmetic, and row reduction mod p.

Two element kinds are supported: permutations of {0, ..., degree-1} and square
matrices over a prime field F_p.  A group (`groups.FiniteGroup`) holds its
elements as keys: a permutation's images, stored as `bytes` up to degree 256
and as a tuple past it, or a matrix's key (below).  Keys hash and compare as
plain `bytes` or tuples, and `bytes` caches its hash, so an index lookup calls
no Python-level `__hash__` or `__eq__`.

An element kind (`permutation_kind(degree)`, `matrix_kind(p, n)`,
`vector_kind(p, n)`, one object per degree or per (p, n)) does the arithmetic
on keys: `mul(a, b)` is the key of the product a·b, `inverse(a)` the key of
a⁻¹, `identity` the identity's key, and `wrap(key)` the element object a key
stands for.  A byte-image product is one `bytes.translate` call and an
inverse one `bytes.maketrans` call; an entry-row matrix product is one pass of
row-by-column sums mod p.  Keys are valid by construction, so the kind checks
no shape, modulus or type.

`group_keys(elements)` chooses the kind a group computes in, and each
generator's key in it.  A permutation group uses its images.  A group of
invertible n×n matrices over F_p with p**n ≤ 257 is keyed by its action on
the p**n − 1 nonzero vectors of F_p^n (`vector_kind`): the key of M is the
permutation v ↦ M·v as byte images, and its arithmetic is the byte-image
kernel of `permutation_kind(p**n - 1)`.  Past 257 a vector key would hold
p**n − 1 entries, so larger matrix groups keep the entry-row keys of
`matrix_kind`.

`Permutation` and `PrimeFieldMatrix` are the objects at the edges: spec
parsing, printed output, cycle types and the tests.  Their public
constructors (`Permutation(images)`, `Permutation.identity`,
`Permutation.from_cycles`, `PrimeFieldMatrix(p, entries)`,
`PrimeFieldMatrix.identity`, `PrimeFieldMatrix.from_flat`) validate their
input; `kind` is an object's own element kind (a matrix's is always
`matrix_kind`) and `key` its key in that kind.
`__mul__` rejects factors of different degree or modulus, then calls its
kind's `mul`, and `inverse` its kind's `inverse`, so each kind has exactly one
product path.  An element hashes as its key.  `encode` is the same for both
image forms.

`row_reduce` is the one Gauss–Jordan elimination over F_p: matrix inverses
here and the eigenspace split in `chartab` both call it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import mul as _times

from .errors import IncompatibleGeneratorsError, SingularMatrixError


_new = object.__new__

# up to this degree images are bytes, padded to a 256-byte translate table
_BYTE_DEGREE = 256
# up to this p**n a matrix group is keyed by its p**n - 1 nonzero vectors
_VECTOR_SPACE = _BYTE_DEGREE + 1


def _images(ints):
    """Images in their stored form: bytes up to degree 256, else a tuple."""
    images = tuple(ints)
    return bytes(images) if len(images) <= _BYTE_DEGREE else images


class PermutationKind:
    """Arithmetic on the image keys of the permutations of one degree.

    `mul(a, b)` is the key of a∘b, (a∘b)(x) = a(b(x)).  Both operations are
    plain functions chosen once for the degree, so a call looks up no
    attribute and tests no image form."""

    __slots__ = ("degree", "identity", "mul", "inverse")

    def __init__(self, degree: int):
        self.degree = degree
        self.identity = identity = _images(range(degree))
        if degree <= _BYTE_DEGREE:
            pad = bytes(_BYTE_DEGREE - degree)

            def mul(a, b):
                return b.translate(a + pad)

            def inverse(a):
                # a translate table that maps a[i] to i, cut back to the degree
                return bytes.maketrans(a, identity)[:degree]

        else:

            def mul(a, b):
                return tuple([a[x] for x in b])

            def inverse(a):
                images = [0] * degree
                for i, x in enumerate(a):
                    images[x] = i
                return tuple(images)

        self.mul = mul
        self.inverse = inverse

    def wrap(self, key) -> "Permutation":
        """The permutation a key stands for, built with no check."""
        result = _new(Permutation)
        result.degree = self.degree
        result.images = key
        return result


@lru_cache(maxsize=None)
def permutation_kind(degree: int) -> PermutationKind:
    return PermutationKind(degree)


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

    @property
    def kind(self) -> PermutationKind:
        return permutation_kind(self.degree)

    @property
    def key(self):
        return self.images

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Function composition: (self * other)(x) = self(other(x))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise IncompatibleGeneratorsError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        kind = self.kind
        return kind.wrap(kind.mul(self.images, other.images))

    def inverse(self) -> "Permutation":
        kind = self.kind
        return kind.wrap(kind.inverse(self.images))

    def is_identity(self) -> bool:
        return self.images == self.kind.identity

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


class MatrixKind:
    """Arithmetic on the entry-row keys of the n×n matrices over F_p.

    `inverse` of a singular key raises SingularMatrixError."""

    __slots__ = ("p", "n", "identity", "mul", "inverse")

    def __init__(self, p: int, n: int):
        self.p, self.n = p, n
        self.identity = identity = _identity_rows(n)

        def mul(a, b):
            cols = tuple(zip(*b))
            return tuple([tuple([sum(map(_times, row, col)) % p for col in cols]) for row in a])

        def inverse(a):
            m = [list(row) + list(unit) for row, unit in zip(a, identity)]
            reduced, pivots = row_reduce(m, n, p)
            if len(pivots) < n:
                raise SingularMatrixError(f"matrix is singular mod {p}: {a!r}")
            return tuple([tuple(row[n:]) for row in reduced])

        self.mul = mul
        self.inverse = inverse

    def wrap(self, key) -> "PrimeFieldMatrix":
        """The matrix a key stands for, built with no check."""
        result = _new(PrimeFieldMatrix)
        result.p = self.p
        result.n = self.n
        result.entries = key
        return result


@lru_cache(maxsize=None)
def matrix_kind(p: int, n: int) -> MatrixKind:
    return MatrixKind(p, n)


class VectorKind:
    """Arithmetic on the vector keys of the invertible n×n matrices over F_p.

    The key of M is the permutation v ↦ M·v of the p**n − 1 nonzero vectors
    of F_p^n in lexicographic order, as byte images; vector v is at position
    Σ v_i·p**(n-1-i) − 1.  The action is on columns, so key(A·B) =
    key(A)∘key(B), and `mul`, `inverse` and `identity` are those of
    `permutation_kind(p**n - 1)`.  `wrap` reads column j of M as the image of
    the unit vector e_j."""

    __slots__ = ("p", "n", "identity", "mul", "inverse", "_vectors", "_units", "_lanes", "_ones", "_values")

    def __init__(self, p: int, n: int):
        self.p, self.n = p, n
        perms = permutation_kind(p**n - 1)
        self.identity, self.mul, self.inverse = perms.identity, perms.mul, perms.inverse
        # every vector of F_p^n in lexicographic order; 0 first, so v is at
        # its key position plus one
        self._vectors = list(product(range(p), repeat=n))
        self._units = [p ** (n - 1 - j) - 1 for j in range(n)]
        # a value below p as one 16-bit lane, and 1 in every lane
        self._lanes = [s.to_bytes(2, "big") for s in range(p)]
        self._ones = int.from_bytes(self._lanes[1] * (p**n - 1), "big")
        self._values: dict = {}

    def key(self, element: "PrimeFieldMatrix") -> bytes:
        """The key of an invertible matrix, built by linearity.

        Coordinate k of M·v is row k of M applied to v, so the position of
        M·v, plus one, is Σ_k p**(n-1-k)·(row k)·v.  Each row's values on the
        nonzero v are memoized as one int of 16-bit lanes, in the vectors'
        order, built one coordinate at a time.  In the weighted sum of the
        rows' ints each lane holds a position plus one, at most
        p**n − 1 ≤ 256, so no lane carries; M·v ≠ 0, so taking 1 off every
        lane borrows from none.  The key is the lanes' low bytes."""
        p, n, memo = self.p, self.n, self._values
        total = -self._ones
        for k, row in enumerate(element.entries):
            packed = memo.get(row)
            if packed is None:
                values = [0]
                for c in row:
                    values = [(s + c * x) % p for s in values for x in range(p)]
                packed = memo[row] = int.from_bytes(
                    b"".join(map(self._lanes.__getitem__, values[1:])), "big"
                )
            total += packed * p ** (n - 1 - k)
        return total.to_bytes(2 * len(self.identity), "big")[1::2]

    def wrap(self, key) -> "PrimeFieldMatrix":
        """The matrix a key stands for, built with no check."""
        columns = [self._vectors[key[u] + 1] for u in self._units]
        return matrix_kind(self.p, self.n).wrap(tuple(zip(*columns)))


@lru_cache(maxsize=None)
def vector_kind(p: int, n: int) -> VectorKind:
    return VectorKind(p, n)


def group_keys(elements) -> tuple:
    """(kind, keys): the element kind a group generated by the compatible
    element objects computes in, and each object's key in it.

    Matrices with p**n ≤ 257 get `vector_kind` keys and must be invertible;
    larger matrices and permutations keep their own kind and key."""
    first = elements[0]
    if isinstance(first, PrimeFieldMatrix) and first.p**first.n <= _VECTOR_SPACE:
        kind = vector_kind(first.p, first.n)
        return kind, [kind.key(g) for g in elements]
    return first.kind, [g.key for g in elements]


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
    def from_flat(cls, p: int, n: int, flat) -> "PrimeFieldMatrix":
        flat = list(flat)
        if len(flat) != n * n:
            raise ValueError(f"expected {n * n} entries, got {len(flat)}")
        return cls(p, [flat[i * n : (i + 1) * n] for i in range(n)])

    @property
    def kind(self) -> MatrixKind:
        return matrix_kind(self.p, self.n)

    @property
    def key(self) -> tuple:
        return self.entries

    def __mul__(self, other: "PrimeFieldMatrix") -> "PrimeFieldMatrix":
        if not isinstance(other, PrimeFieldMatrix):
            return NotImplemented
        if other.p != self.p or other.n != self.n:
            raise IncompatibleGeneratorsError(
                f"matrix shape/modulus mismatch: ({self.n}, {self.p}) vs ({other.n}, {other.p})"
            )
        kind = self.kind
        return kind.wrap(kind.mul(self.entries, other.entries))

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
        kind = self.kind
        return kind.wrap(kind.inverse(self.entries))

    def is_identity(self) -> bool:
        return self.entries == self.kind.identity

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
