"""Exact complex character tables via class-matrix eigenspace splitting.

The class sums K_j of a finite group span its class algebra, with structure
constants a_{jik} = #{(x, y) ∈ C_j × C_i : xy = rep_k}.  For every
irreducible character χ the scaled values ω(k) = |C_k|·χ(g_k)/χ(1) form a
simultaneous right eigenvector of all structure-constant matrices:
(A_j · ω)_i = ω(j)·ω(i).  The table is recovered in five exact steps:

1. count only the rows of the integer matrix A_j that the split reads, each
   once per table: with y_i the representative of C_i, row i is
   a_{jik} = |C_i|·#{x ∈ C_j : x·y_i ∈ C_k}/|C_k|, from min(|C_i|, |C_j|)
   products and no inverses;
2. pick a prime p ≡ 1 (mod exponent) with p > 2√|G|.  Such p cannot divide
   |G|: a prime divisor q of |G| divides the exponent (Cauchy), forcing
   p ≡ 1 (mod q), so the class algebra over F_p is semisimple and F_p holds
   every needed root of unity;
3. split F_p^r into common eigenspaces by the matrices A_j in increasing j,
   until every space is a line.  Each space is kept as a reduced echelon
   basis with its pivot columns; A_j maps it into itself, so the coordinates
   of A_j·v are the entries of A_j·v at the pivots, and the split reads only
   the rows of A_j at the pivots of the spaces that are not yet lines.  A
   space on which A_j acts as a scalar is one eigenspace of A_j and is kept
   as it is.  On every other space the eigenvalues are the roots of the
   characteristic polynomial of A_j restricted to it, taken in ascending
   order with one kernel computed per root.  When class j is rational (g^s
   is conjugate to g for every s prime to its order), each ω(j) is an
   integer in [−|C_j|, |C_j|]; when 2|C_j| + 1 < p the roots are sought
   among those residues first, and in the rest of F_p only if they do not
   fill the space.  Each
   line, scaled to value 1 at the identity class, is one ω-vector mod p;
4. recover each degree from d² = |G| / Σ_k ω(k)·ω(k')/|C_k| (k' the inverse
   class), unique as an integer ≤ √|G| < p/2;
5. lift each value by the inverse discrete Fourier transform over power-map
   classes: with η a primitive o-th root mod p (o the element order), the
   multiplicity of ζ_o^t in the representation at g is
   m_t = (1/o)·Σ_s χ(g^s)·η^{−ts} mod p, and χ(g) = Σ_t m_t·ζ_o^t.  One
   o×o table of η^{ts} mod p is built per element order o (it is symmetric,
   and its row −t mod o holds η^{−ts}).  The multiplicities depend only on
   the degree and θ, the values χ(g^s) mod p, so each distinct (degree, θ)
   is lifted once, at the cost of 2·o integer dot products, and its value is
   shared by every (row, class) with that pair; for every one, each m_t must
   be ≤ the degree, the m_t must sum to the degree, and Σ_t m_t·η^{ts} must
   give back χ(g^s) for every s.

The root η is derived from the least primitive e-th root λ mod p, so output
is reproducible; a different λ would relabel the table by a global Galois
automorphism, which every consumer here is invariant under.

One prime suffices: p ∤ |G| and F_p holds the e-th roots of unity, so F_p is
a splitting field and Z(F_pG) ≅ F_p^r.  The joint eigenspaces are lines with
value 1 at the identity class, d ≤ √|G| < p/2 fixes each degree, and each root
multiplicity lies in [0, d].  Every SplitFailure therefore signals a fault in
the input, and it ends the call with its own text.

Pivot rows cannot see an image that leaves its space, so a wrong row could
yield a consistent but wrong table.  Before it returns, `character_table`
therefore checks that the lifted table is square and that the column
orthogonality relation holds exactly, which implies the row relation too, and
raises VerificationError on the first violation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gcd, isqrt, lcm

from .conjugacy import ClassTable, power_classes
from .cyclotomic import (
    Cyclotomic,
    _prime_factors,
    conjugate_mod,
    dot_mod,
    integer_coordinates,
)
from .elements import row_reduce
from .errors import SplitFailureError, VerificationError
from .groups import FiniteGroup


def class_matrix_row(T: ClassTable, G: FiniteGroup, j: int, i: int) -> tuple[int, ...]:
    """Row i of A_j from min(|C_i|, |C_j|) products.

    a_{jik} = |C_i|·#{x ∈ C_j : x·y_i ∈ C_k}/|C_k| with y_i the
    representative of C_i: the pairs (x, y) ∈ C_j × C_i with xy ∈ C_k number
    a_{jik}·|C_k|, and conjugating each pair so that y = y_i shows that they
    also number |C_i| times that count.  The class algebra is commutative, so
    a_{jik} = a_{ijk}, and the count runs over the smaller of C_i and C_j.
    Each division must be exact; a remainder raises VerificationError."""
    elements, index, mul, class_of = G.elements, G.index, G.kind.mul, T.class_of
    scanned, fixed = (i, j) if T.classes[i].size < T.classes[j].size else (j, i)
    y = elements[T.classes[fixed].representative]
    counts = [0] * len(T.classes)
    for x in T.classes[scanned].members:
        counts[class_of[index[mul(elements[x], y)]]] += 1
    size = T.classes[fixed].size
    row = []
    for k, n in enumerate(counts):
        a, remainder = divmod(size * n, T.classes[k].size)
        if remainder:
            raise VerificationError(
                f"class matrix {j}, row {i}: entry {k} is not an integer"
            )
        row.append(a)
    return tuple(row)


def dixon_prime(exponent: int, group_order: int) -> int:
    """Least prime p ≡ 1 (mod exponent) with p > 2√(group_order): the working prime."""
    if exponent < 1:
        raise ValueError(f"exponent must be ≥ 1, got {exponent}")
    candidate = exponent + 1
    for _ in range(1_000_000):
        if _prime_factors(candidate) == [candidate] and candidate * candidate > 4 * group_order:
            return candidate
        candidate += exponent
    raise SplitFailureError("prime search exhausted its iteration bound")


@dataclass(frozen=True)
class Character:
    """One table row: degree plus one value per class id."""

    degree: int
    values: tuple[Cyclotomic, ...]

    def sort_key(self) -> tuple:
        """The project-wide row order: by degree, then by the values."""
        return (self.degree, tuple(v.sort_key() for v in self.values))


@dataclass(frozen=True)
class CharacterTable:
    group_order: int
    class_sizes: tuple[int, ...]
    class_orders: tuple[int, ...]
    rows: tuple[Character, ...]

    @property
    def num_classes(self) -> int:
        return len(self.class_sizes)

    @cached_property
    def conductors(self) -> tuple[int, ...]:
        """Per class k, the lcm of the conductors of the values χ(g_k)."""
        return tuple(
            lcm(*(row.values[k].conductor for row in self.rows))
            for k in range(self.num_classes)
        )

    def column(self, k: int, c: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D_k, vectors), vectors[row] = D_k·χ_row(g_k) as an integer vector at
        conductor c, D_k the column's common denominator (1 for a true table).

        The one lift of table values; callers pass c = the lcm of the
        conductors of the columns they read.  Memoized in `columns`."""
        found = self.columns.get((k, c))
        if found is None:
            found = self.columns[k, c] = integer_coordinates(
                [row.values[k] for row in self.rows], c
            )
        return found

    @cached_property
    def columns(self) -> dict:
        """Memo of `column` by (class id, conductor); empty on every new table."""
        return {}

    @cached_property
    def character_sums(self) -> dict:
        """Memo of `counting._character_sum`, keyed by (sorted class ids, power).

        Empty on every new table, `dataclasses.replace` included."""
        return {}


def _kernel_mod(matrix, p):
    """Deterministic kernel basis of a square matrix over F_p."""
    m = len(matrix)
    reduced, pivots = row_reduce(matrix, m, p)
    basis = []
    for free in range(m):
        if free in pivots:
            continue
        vec = [0] * m
        vec[free] = 1
        for prow, col in enumerate(pivots):
            vec[col] = (-reduced[prow][free]) % p
        basis.append(tuple(vec))
    return basis


def _charpoly_mod(matrix, p):
    """Coefficients of det(λI − matrix) over F_p, constant term first.

    Reduces a copy to upper Hessenberg form H by similarity, then expands
    the leading principal minors of λI − H along their last column, O(m³)."""
    m = len(matrix)
    H = [[x % p for x in row] for row in matrix]
    for k in range(m - 2):
        pivot = next((i for i in range(k + 1, m) if H[i][k]), None)
        if pivot is None:
            continue
        if pivot != k + 1:
            H[pivot], H[k + 1] = H[k + 1], H[pivot]
            for row in H:
                row[pivot], row[k + 1] = row[k + 1], row[pivot]
        inv = pow(H[k + 1][k], -1, p)
        for i in range(k + 2, m):
            u = H[i][k] * inv % p
            if u:
                # row i −= u·row k+1, then column k+1 += u·column i
                H[i] = [(a - u * b) % p for a, b in zip(H[i], H[k + 1])]
                for row in H:
                    row[k + 1] = (row[k + 1] + u * row[i]) % p
    # polys[n] = det(λI − H[:n, :n]); the product t runs over subdiagonal entries
    polys = [[1]]
    for n in range(1, m + 1):
        prev = polys[-1]
        poly = [0] + prev
        for d, c in enumerate(prev):
            poly[d] = (poly[d] - H[n - 1][n - 1] * c) % p
        t = 1
        for i in range(1, n):
            t = t * H[n - i][n - i - 1] % p
            if not t:
                break
            scale = t * H[n - 1 - i][n - 1] % p
            for d, c in enumerate(polys[n - 1 - i]):
                poly[d] = (poly[d] - scale * c) % p
        polys.append(poly)
    return polys[m]


def _restriction(space, rows, p):
    """Matrix M of A on an A-invariant space, read from the rows of A at its pivots.

    space is (basis, pivots): a reduced echelon basis, basis[t] being 1 at
    pivots[t] and 0 at the other pivots.  A·b_t lies in the space, so its
    coordinates are its entries at the pivots: A·b_t = Σ_s M[s][t]·b_s with
    M[s][t] = rows[pivots[s]]·b_t mod p.  Rows off the pivots are never read,
    so an image that leaves the space goes unseen here."""
    basis, pivots = space
    return [[sum(map(operator.mul, rows[i], b)) % p for b in basis] for i in pivots]


def _split_space(space, rows, p, radius):
    """Split an invariant subspace into eigenspaces of A, eigenvalues ascending.

    space and rows are as in `_restriction`.  radius is such that every
    eigenvalue of A is expected to be congruent mod p to an integer in
    [−radius, radius]: for a rational class j, |C_j|, since
    ω(j) = |C_j|·χ(g_j)/χ(1) is then a rational algebraic integer, so an
    integer, and |χ(g_j)| ≤ χ(1); otherwise p // 2, which excludes nothing.

    A restriction equal to λ·I makes the space one eigenspace, returned as it
    is, with no characteristic polynomial, root search or kernel: a search
    would find the one root λ, whose kernel is the whole space.  Otherwise
    the eigenvalues are the roots mod p of the characteristic polynomial of
    the restriction, and only a root costs a kernel.  When 2·radius + 1 < p
    the search tries λ ∈ [0, radius] ∪ [p − radius, p) first and the rest of
    F_p only while the eigenspaces do not yet fill the subspace, so a wrong
    radius costs time, never a root.  The eigenspaces are those a search of
    all of F_p finds, as once their dimensions sum to that of the subspace
    no further λ has a nonzero kernel; each is returned in the same form as
    space, in ascending order of its eigenvalue.  Raises SplitFailure when
    they do not fill the subspace (A not diagonalizable here)."""
    basis = space[0]
    m = len(basis)
    M = _restriction(space, rows, p)
    lam = M[0][0]
    if all(x == (lam if s == t else 0) for s, row in enumerate(M) for t, x in enumerate(row)):
        return [space]
    charpoly = _charpoly_mod(M, p)
    columns = list(zip(*basis))
    search = range(p)
    if 2 * radius + 1 < p:
        search = chain(range(radius + 1), range(p - radius, p), range(radius + 1, p - radius))
    pieces = {}
    found = 0
    for lam in search:
        if found == m:
            break
        value = 0
        for c in reversed(charpoly):
            value = (value * lam + c) % p
        if value:
            continue
        shifted = [
            [(x - lam) % p if s == t else x for t, x in enumerate(row)]
            for s, row in enumerate(M)
        ]
        ker = _kernel_mod(shifted, p)
        if not ker:
            continue
        ambient = [[sum(map(operator.mul, x, column)) % p for column in columns] for x in ker]
        pieces[lam] = row_reduce(ambient, len(columns), p)
        found += len(ker)
    if found != m:
        raise SplitFailureError("matrix not diagonalizable over this prime")
    return [pieces[lam] for lam in sorted(pieces)]


def _least_primitive_root(p: int, e: int) -> int:
    """Least λ in [1, p) of multiplicative order exactly e mod p."""
    divisors = _prime_factors(e)
    for lam in range(1, p):
        if pow(lam, e, p) == 1 and all(pow(lam, e // q, p) != 1 for q in divisors):
            return lam
    raise SplitFailureError(f"no primitive {e}-th root mod {p}")


def _attempt(G: FiniteGroup, T: ClassTable, p: int, e: int) -> CharacterTable:
    """The split and lift at p; the first inconsistency raises SplitFailure."""
    r = len(T.classes)
    powers = power_classes(T)
    spaces = [([[1 if i == k else 0 for i in range(r)] for k in range(r)], list(range(r)))]
    for j in range(1, r):
        # two spaces may share a pivot column; each row is counted once
        needed = dict.fromkeys(i for basis, pivots in spaces if len(basis) > 1 for i in pivots)
        if not needed:
            break
        rows = {i: [x % p for x in class_matrix_row(T, G, j, i)] for i in needed}
        # a rational class has integer values, so |ω(j)| ≤ |C_j|
        o = len(powers[j])
        rational = all(powers[j][s] == j for s in range(1, o) if gcd(s, o) == 1)
        radius = T.classes[j].size if rational else p // 2
        spaces = [
            piece
            for space in spaces
            for piece in (_split_space(space, rows, p, radius) if len(space[0]) > 1 else (space,))
        ]
    if any(len(basis) != 1 for basis, _ in spaces):
        raise SplitFailureError(
            f"{sum(1 for basis, _ in spaces if len(basis) > 1)} eigenspaces left unsplit"
        )

    # a reduced line with a nonzero identity entry is already scaled to 1 there
    if any(pivots != [0] for _, pivots in spaces):
        raise SplitFailureError("eigenvector vanishes at the identity class")
    vectors = [basis[0] for basis, _ in spaces]

    sizes = [c.size for c in T.classes]
    inv_sizes = [pow(s, -1, p) for s in sizes]
    order = G.order
    order_mod = order % p
    degrees = []
    for w in vectors:
        s_val = sum(w[k] * w[T.inverse_class[k]] * inv_sizes[k] for k in range(r)) % p
        if s_val == 0:
            raise SplitFailureError("degree denominator vanished")
        d_sq = order_mod * pow(s_val, -1, p) % p
        degree = next(
            (d for d in range(1, isqrt(order) + 1) if d * d % p == d_sq), None
        )
        if degree is None:
            raise SplitFailureError("no integer degree matches")
        degrees.append(degree)
    if sum(d * d for d in degrees) != order:
        raise SplitFailureError("degree squares do not sum to the group order")

    lam_root = _least_primitive_root(p, e)
    # per element order o: the symmetric table F[t][s] = η^{ts} and 1/o mod p,
    # with η = λ^{e/o} a primitive o-th root; row −t of F holds η^{−ts}
    transforms = {}
    for o in {len(pcs) for pcs in powers}:
        eta = pow(lam_root, e // o, p)
        eta_pow = [pow(eta, i, p) for i in range(o)]
        F = [[eta_pow[t * s % o] for s in range(o)] for t in range(o)]
        transforms[o] = (F, pow(o, -1, p))
    # the lift and its checks depend only on (degree, θ), so each distinct
    # pair is lifted and checked once
    lifted: dict[tuple, Cyclotomic] = {}
    rows = []
    for w, degree in zip(vectors, degrees):
        values = []
        for pcs in powers:
            theta = tuple([degree * w[pc] * inv_sizes[pc] % p for pc in pcs])
            value = lifted.get((degree, theta))
            if value is None:
                o = len(pcs)
                F, inv_o = transforms[o]
                mults = [sum(map(operator.mul, theta, F[-t % o])) * inv_o % p for t in range(o)]
                if max(mults) > degree:
                    raise SplitFailureError("root multiplicity exceeds the degree")
                if sum(mults) != degree:
                    raise SplitFailureError("root multiplicities do not sum to the degree")
                for s in range(o):
                    # lifted value must reduce back to the eigenvector data
                    if sum(map(operator.mul, mults, F[s])) % p != theta[s]:
                        raise SplitFailureError("lifted value does not reduce to mod-p data")
                value = lifted[degree, theta] = Cyclotomic.from_exponent_map(
                    o, {t: m for t, m in enumerate(mults) if m}
                )
            values.append(value)
        rows.append(Character(degree=degree, values=tuple(values)))

    rows.sort(key=Character.sort_key)
    return CharacterTable(
        group_order=order,
        class_sizes=tuple(sizes),
        class_orders=tuple(T.element_order_of_class),
        rows=tuple(rows),
    )


def character_table(G: FiniteGroup, T: ClassTable) -> CharacterTable:
    """Exact character table from one split and lift at the Dixon prime.

    A failed split raises its own SplitFailure; the table is returned only if
    it is square and the column orthogonality relation holds exactly (so both
    relations do), otherwise VerificationError."""
    exponent = lcm(*T.element_order_of_class)
    table = _attempt(G, T, dixon_prime(exponent, G.order), exponent)
    violation = verify_orthogonality(table)
    if violation is not None:
        raise VerificationError(violation)
    return table


def verify_orthogonality(ct: CharacterTable) -> str | None:
    """Exact orthogonality of a square table: the first violation's text, or None.

    The table must be square, and then only the column relation
    Σ_χ χ(g_k)·conj χ(g_l) = δ_kl·|G|/|C_k| is checked.  It suffices: in
    matrix form, with X[χ][k] = χ(g_k), it says X^H·X = diag(|G|/|C_k|), so a
    square X is invertible with X⁻¹ = diag(|C_k|/|G|)·X^H, and X·X⁻¹ = I is the
    row relation Σ_k |C_k|·χ(g_k)·conj ψ(g_k) = δ_χψ·|G|.  A table that is not
    square fails some relation, since h orthogonal nonzero rows in C^r and r
    orthogonal nonzero columns in C^h force h = r.

    Pair (k, l) is checked at c = lcm of the two columns' conductors, on the
    lifts `ct.column(k, c)` = (D_k, D_k·χ(g_k)), and each column is conjugated
    at most once per conductor it meets.  So `dot_mod` compares
    |C_k|·Σ_χ (D_k·χ(g_k))·(D_l·conj χ(g_l)) with δ_kl·D_k·D_l·|G|."""
    r = ct.num_classes
    if len(ct.rows) != r:
        return f"orthogonality fails for a table of {len(ct.rows)} rows on {r} classes"
    conjugates: dict[tuple[int, int], list] = {}
    for k in range(r):
        for l in range(k, r):
            c = lcm(ct.conductors[k], ct.conductors[l])
            Dk, xs = ct.column(k, c)
            Dl, ys = ct.column(l, c)
            if (l, c) not in conjugates:
                conjugates[l, c] = [conjugate_mod(y, c) for y in ys]
            total = dot_mod(xs, conjugates[l, c], c)
            expected = Dk * Dl * ct.group_order if k == l else 0
            if ct.class_sizes[k] * total[0] != expected or any(total[1:]):
                return f"column orthogonality fails for classes {k}, {l}"
    return None
