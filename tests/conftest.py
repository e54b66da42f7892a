"""Shared test helpers: one group pipeline cache keyed by spec text, the
image-list and entry-list references for key arithmetic, the object→index
map, the
brute-force centralizer, commutator-closure and fingerprint references, the
SO3 scan of every third-row candidate, the whole class-matrix reference, the
full-scan reference for solutions and
orbits, the per-triple scan as the reference for the all-triples pair scan,
the split of an eigenspace by a search of all of F_p and a table built with
every split compared to it,
the cyclotomic reference sum, the long-division reduction mod Φ_e,
the conductor descent by elimination over Q with the canonical form built on
it alone, the whole-table integer lift, the two-relation orthogonality
reference, the per-multiset character sum, tampered character tables and the
tracemalloc peak of one call.

The cyclotomic reference sum reduces through `cyclotomic._power_basis` (by
way of `Cyclotomic.from_exponent_map`), the one reduction of the program;
`test_cyclotomic` checks that step against the long division."""

from __future__ import annotations

import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product as iter_product
from math import lcm, prod
from operator import mul

from rigidity import chartab
from rigidity.audit import Pipelines
from rigidity.chartab import Character, _charpoly_mod, _kernel_mod, character_table
from rigidity.cyclotomic import (
    Cyclotomic,
    _prime_factors,
    _zeta_powers,
    conjugate_mod,
    cyclotomic_polynomial,
    dot_mod,
    euler_phi,
    integer_coordinates,
)
from rigidity.counting import Orbit, enumerate_solutions, scan_class_counts
from rigidity.elements import group_keys, matrix_kind, row_reduce
from rigidity.errors import SplitFailureError
from rigidity.groups import FiniteGroup, orbit, orbit_partition

# quaternion group of order 8 as 2x2 matrices over F_3
Q8_FLATS = ((0, 2, 1, 0), (1, 1, 1, 2))
Q8 = "Mat(3, 2; [0 2 1 0], [1 1 1 2])"
SL23 = "Mat(3, 2; [1 1 0 1], [0 2 1 0])"
SL27 = "Mat(7, 2; [1 1 0 1], [0 6 1 0])"

# the bytes per group element a scan of 4 classes may peak at: the Sym(6) and
# SL(2,7) scans of `test_four_class_scan_*` read 361 and 394 while the group
# memoized a Cayley row per distinct partial product, and 33 and 50 without
SCAN_BYTES_PER_ELEMENT = 128

# the bytes per group element the Alt(8) (2,3,7) census may peak at: 125 while
# every conjugator had a row of |G| ints, and 7 with rows for the stored
# generators only
CENSUS_BYTES_PER_ELEMENT = 32

_PIPELINES = Pipelines()
group = _PIPELINES.group
classed = _PIPELINES.classes
charactered = _PIPELINES.characters


def compose_images(a, b) -> list[int]:
    """Images of a∘b from image lists: (a∘b)(x) = a[b[x]]."""
    return [a[x] for x in b]


def invert_images(a) -> list[int]:
    """Images of a⁻¹ from an image list: the position of each point in a."""
    a = list(a)
    return [a.index(x) for x in range(len(a))]


def multiply_entries(a, b, p: int) -> list[list[int]]:
    """Entry rows of a·b mod p, from entry rows, by the textbook triple sum."""
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) % p for j in range(n)] for i in range(n)]


def _minor(a, row: int, col: int):
    return [r[:col] + r[col + 1 :] for k, r in enumerate(a) if k != row]


def determinant_entries(a, p: int) -> int:
    """Determinant mod p of entry rows by Laplace expansion along row 0."""
    if not a:
        return 1
    a = [list(r) for r in a]
    return sum(
        (-1) ** j * a[0][j] * determinant_entries(_minor(a, 0, j), p) for j in range(len(a))
    ) % p


def invert_entries(a, p: int) -> list[list[int]]:
    """Entry rows of a⁻¹ mod p as det⁻¹ times the adjugate; a must be invertible."""
    a = [list(r) for r in a]
    scale = pow(determinant_entries(a, p), -1, p)
    return [
        [(-1) ** (i + j) * determinant_entries(_minor(a, j, i), p) * scale % p for j in range(len(a))]
        for i in range(len(a))
    ]


def wrapped(G) -> list:
    """Every element of G as an object, in index order: `G.element(i)` at i."""
    return [G.element(i) for i in range(G.order)]


def positions(G) -> dict:
    """Each element object of G mapped to its index, built from `wrapped(G)`.

    A reference locates an object here, not by `G.index[x.key]`: a matrix
    group's keys need not be its objects' own keys."""
    return {x: i for i, x in enumerate(wrapped(G))}


def centralizer(G, i: int) -> set[int]:
    """Indices of all elements commuting with element i, by |G| products
    each way: the reference for `FiniteGroup.centralizer_generators`."""
    x = G.element(i)
    return {j for j, y in enumerate(wrapped(G)) if x * y == y * x}


def commutator_closure(G) -> set[int]:
    """Indices of the subgroup generated by every commutator a⁻¹b⁻¹ab of G.

    Brute force by element arithmetic, with all the commutators as generators
    of one `orbit` call: no conjugation row and no greedy choice of generators.
    """
    inverses = [(a.inverse(), a) for a in wrapped(G)]
    commutators = {ai * bi * a * b for ai, a in inverses for bi, b in inverses}
    at = positions(G)
    return {at[x] for x in orbit(G.element(0), commutators, mul)}


def fingerprint_reference(G, seed) -> tuple:
    """`FiniteGroup.fingerprint(seed)` by brute force on element objects.

    The subgroup H is one `orbit` of the identity under the seed elements;
    each class is a member not yet classed conjugated by every member of H;
    each order is found by naive powers.  No index, row or class sweep of G
    is used.
    """
    elements = wrapped(G)
    members = orbit(elements[0], [elements[i] for i in set(seed)], mul)
    inverses = [(h.inverse(), h) for h in members]
    sizes, classed = [], set()
    for x in members:
        if x not in classed:
            conjugates = {hi * x * h for hi, h in inverses}
            classed |= conjugates
            sizes.append(len(conjugates))
    profile: dict[int, int] = {}
    for x in members:
        k, power = 1, x
        while not power.is_identity():
            k, power = k + 1, power * x
        profile[k] = profile.get(k, 0) + 1
    return (len(members), tuple(sorted(sizes)), tuple(sorted(profile.items())))


def so3_by_candidate_scan(p: int) -> FiniteGroup:
    """SO3(p) by a scan of all p³ candidates for the third row.

    The reference for `groups.so3_enumerate`, which takes the cross product
    of each orthonormal pair: for each such pair (r1, r2), in lexicographic
    order, every r3 in lexicographic order with r3·r3 = 1, r1·r3 = r2·r3 = 0
    and det(r1, r2, r3) = 1 is kept.  The matrices are keyed by `group_keys`
    and wrapped with the identity moved to the front."""
    rng = range(p)
    vectors = [(a, b, c) for a in rng for b in rng for c in rng]

    def dot(u, v):
        return (u[0] * v[0] + u[1] * v[1] + u[2] * v[2]) % p

    unit = [v for v in vectors if dot(v, v) == 1]
    mats = []
    for r1 in unit:
        for r2 in unit:
            if dot(r1, r2) != 0:
                continue
            for r3 in vectors:
                if dot(r3, r3) != 1 or dot(r1, r3) or dot(r2, r3):
                    continue
                det = (
                    r1[0] * (r2[1] * r3[2] - r2[2] * r3[1])
                    - r1[1] * (r2[0] * r3[2] - r2[2] * r3[0])
                    + r1[2] * (r2[0] * r3[1] - r2[1] * r3[0])
                ) % p
                if det == 1:
                    mats.append((r1, r2, r3))
    kind, keys = group_keys(list(map(matrix_kind(p, 3).wrap, mats)))
    keys.remove(kind.identity)
    keys.insert(0, kind.identity)
    return FiniteGroup.from_closed_elements(kind, keys)


@dataclass(frozen=True)
class ClassMatrix:
    """Structure constants a_{jik} for one fixed class j; entries[i][k]."""

    j: int
    entries: tuple[tuple[int, ...], ...]


def class_matrices(T, G, ids=None) -> list[ClassMatrix]:
    """Count the structure-constant matrices of the classes ids (default all) exactly.

    The whole-matrix reference for `chartab.class_matrix_row`: it tallies
    y = x⁻¹·rep_k over x ∈ C_j, where the split counts x·y_i per row."""
    r = len(T.classes)
    at = positions(G)
    reps = [G.element(c.representative) for c in T.classes]
    out = []
    for j in range(r) if ids is None else ids:
        c = T.classes[j]
        entries = [[0] * r for _ in range(r)]
        for x in c.members:
            # xy = z  ⟺  y = x⁻¹z; tally the class y lands in
            xi = G.element(G.inverse(x))
            for k, z in enumerate(reps):
                entries[T.class_of[at[xi * z]]][k] += 1
        out.append(ClassMatrix(j=c.id, entries=tuple(tuple(row) for row in entries)))
    return out


def split_by_full_search(space, rows, p):
    """The split of one invariant subspace by a search of all of F_p.

    The reference for `chartab._split_space`, which keeps a space on which
    A acts as a scalar and searches a window of small integers first: here
    the characteristic polynomial of the restriction is evaluated at
    λ = 0, 1, … until the eigenspaces fill the subspace, with one kernel per
    root and no scalar test, and the restriction and the map back to the
    ambient space are sums of their own, coordinate by coordinate.  space
    and rows are as in `chartab._restriction`."""
    basis, pivots = space
    m, r = len(basis), len(basis[0])
    M = [[sum(a * x for a, x in zip(rows[i], b)) % p for b in basis] for i in pivots]
    charpoly = _charpoly_mod(M, p)
    pieces = []
    found = 0
    for lam in range(p):
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
        ambient = [
            [sum(x[t] * basis[t][k] for t in range(m)) % p for k in range(r)] for x in ker
        ]
        pieces.append(row_reduce(ambient, r, p))
        found += len(ker)
    if found != m:
        raise SplitFailureError("matrix not diagonalizable over this prime")
    return pieces


def table_by_compared_splits(G, T):
    """(`character_table(G, T)`, one (p, radius, scalar) per split), with
    every call of `chartab._split_space` required to return what
    `split_by_full_search` returns on the same space and rows; scalar tells
    whether the split kept its space as it was."""
    split = chartab._split_space
    splits = []

    def compared(space, rows, p, radius):
        pieces = split(space, rows, p, radius)
        assert pieces == split_by_full_search(space, rows, p), (p, radius)
        splits.append((p, radius, pieces[0] is space))
        return pieces

    chartab._split_space = compared
    try:
        return character_table(G, T), splits
    finally:
        chartab._split_space = split


class FullScan:
    """The scan and orbit routes without the centralizer reduction, kept as
    the reference for one group.

    No entry is fixed: the first s−2 entries of a tuple are iterated, and the
    last two are looked up by their product in a table of all their pairs.
    Orbits are those of G itself on every solution.
    """

    def __init__(self, G, T):
        self.G, self.T = G, T
        self.conjugation = [
            [G.conjugate(x, g) for x in range(G.order)] for g in G.generator_indices
        ]
        self._pairs = {}

    def _pairs_by_product(self, y, z):
        if (y, z) not in self._pairs:
            table = self._pairs[y, z] = defaultdict(list)
            for b in self.T.classes[y].members:
                for c in self.T.classes[z].members:
                    table[self.G.mult(b, c)].append((b, c))
        return self._pairs[y, z]

    def solutions(self, ids):
        """Every solution of x₁⋯x_s = 1 in the class tuple, ascending."""
        G = self.G
        pairs = self._pairs_by_product(*ids[-2:])
        solutions = []
        for head in iter_product(*(self.T.classes[i].members for i in ids[:-2])):
            h = 0
            for x in head:
                h = G.mult(h, x)
            solutions.extend(head + pair for pair in pairs.get(G.inverse(h), ()))
        return sorted(solutions)

    def decomposition(self, solutions):
        """The orbits of G on the solutions, least tuples first."""
        order = self.G.order
        return tuple(
            Orbit(representative=seed, size=len(members), stabilizer_order=order // len(members))
            for seed, members in orbit_partition(
                solutions, self.conjugation, lambda sol, t: tuple(map(t.__getitem__, sol))
            )
        )


def pair_scan_mismatch(G, T) -> tuple[int, int] | None:
    """The first ordered class pair (i, j) whose `scan_class_counts`, each
    times |C_i|, differs from one `enumerate_solutions` per triple (i, j, k),
    or None.  `enumerate_solutions` iterates C_j and solves for x_k, or, when
    C_j is the larger class, iterates C_k and solves for x_j."""
    r = T.num_classes
    for i, j in iter_product(range(r), repeat=2):
        by_pair = [T.classes[i].size * n for n in scan_class_counts(G, T, i, j)]
        by_triple = [len(enumerate_solutions(G, T, (i, j, k))) for k in range(r)]
        if by_pair != by_triple:
            return i, j
    return None


def traced_peak(f, *args):
    """(f(*args), the peak of the memory tracemalloc traced while f ran)."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cyclotomic_sum(terms) -> Cyclotomic:
    """Σ weight·∏ factors over (weight, factors) pairs, in canonical form.

    weight is rational and factors a sequence of Cyclotomic values (empty for
    the product 1).  Each product is convolved as an exponent map at the lcm
    L of all the conductors, and the sum is reduced once by
    `Cyclotomic.from_exponent_map`, so this reference shares no code with
    `dot_mod`.
    """
    terms = [(Fraction(weight), tuple(factors)) for weight, factors in terms]
    L = lcm(1, *(f.conductor for _, factors in terms for f in factors))
    total: dict[int, Fraction] = {}
    for weight, factors in terms:
        product = {0: weight}
        for f in factors:
            step = L // f.conductor
            convolved: dict[int, Fraction] = {}
            for k1, c1 in product.items():
                for k2, c2 in f.coeffs.items():
                    k = (k1 + k2 * step) % L
                    convolved[k] = convolved.get(k, 0) + c1 * c2
            product = convolved
        for k, c in product.items():
            total[k] = total.get(k, 0) + c
    return Cyclotomic.from_exponent_map(L, total)


def reduce_mod_reference(coeffs: list[int], e: int) -> tuple[int, ...]:
    """Integer polynomial coeffs (low degree first, at least φ(e) of them)
    reduced mod Φ_e to its φ(e) power-basis coordinates by long division;
    overwrites coeffs.

    The reference for `cyclotomic._power_basis`, which reads each ζ_e^k off
    its table of powers instead."""
    cp = cyclotomic_polynomial(e)
    n = len(cp) - 1
    # Φ_e is monic of degree n: x^k = x^{k-n}·(x^n − Φ_e) + lower terms
    for k in range(len(coeffs) - 1, n - 1, -1):
        c = coeffs[k]
        if c:
            for i in range(n):
                coeffs[k - n + i] -= c * cp[i]
    return tuple(coeffs[:n])


def solve_exact(columns: list[tuple], target: list[Fraction]) -> list[Fraction] | None:
    """Solve Σ c_j·columns[j] = target over the rationals, or None."""
    rows = len(target)
    cols = len(columns)
    mat = [[Fraction(columns[j][i]) for j in range(cols)] + [target[i]] for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if mat[i][cols] != 0:
            return None
    solution = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        solution[c] = mat[i][cols]
    # free columns (value 0) only arise if the columns are dependent; they are
    # basis vectors of a subfield here, so this does not happen in practice
    return solution


def descend_by_elimination(e: int, vec: list[Fraction], p: int) -> list[Fraction] | None:
    """Rewrite vec over the basis of Q(ζ_{e/p}) if the value lies there.

    The reference for `cyclotomic._descend_by_trace`: it solves for the
    coordinates over the subfield's basis vectors ζ_e^{p·j}, for any prime p
    dividing e."""
    e2 = e // p
    powers = _zeta_powers(e)
    columns = [powers[(p * j) % e] for j in range(euler_phi(e2))]
    return solve_exact(columns, vec)


def canonical_reference(e: int, mapping: dict) -> Cyclotomic:
    """`Cyclotomic.from_exponent_map(e, mapping)` by elimination only.

    The vector is built at e itself, and each descent solves the linear
    system of `descend_by_elimination` over the rationals, trying the prime
    factors of e in ascending order, until none applies.  The program reads
    no such system: it descends by the relative trace where p divides e once
    and by coordinates where p² divides e."""
    powers = _zeta_powers(e)
    vec = [Fraction(0)] * euler_phi(e)
    for k, c in mapping.items():
        for i, b in enumerate(powers[k % e]):
            vec[i] += Fraction(c) * b
    while True:
        if not any(vec):
            return Cyclotomic(1, {})
        if e == 1:
            break
        for p in _prime_factors(e):
            sub = descend_by_elimination(e, vec, p)
            if sub is not None:
                e, vec = e // p, sub
                break
        else:
            break
    return Cyclotomic(e, {k: c for k, c in enumerate(vec) if c})


def integer_table(ct):
    """(e, D, columns): the whole table lifted at its one conductor e, the lcm
    of all value conductors, with one common denominator D, so that
    columns[k][row] = D·χ_row(g_k) as an integer vector.

    Built by `integer_coordinates` directly, not through
    `CharacterTable.column`, so the references below share no lift with the
    code they check."""
    e = lcm(*(v.conductor for row in ct.rows for v in row.values))
    h = len(ct.rows)
    D, vectors = integer_coordinates(
        [row.values[k] for k in range(ct.num_classes) for row in ct.rows], e
    )
    return e, D, [vectors[k * h : (k + 1) * h] for k in range(ct.num_classes)]


def two_relation_violation(ct) -> str | None:
    """Both orthogonality relations, each at the table's one conductor e: the
    first violation's text, or None.

    The reference for `chartab.verify_orthogonality`, which checks
    squareness and the column relation at pair conductors.  Sums run on
    `integer_table(ct)`, which holds D·χ, so each sum is D² times its value;
    both relations compare with D²·|G|·δ, and products are added by a loop of
    its own, not by `dot_mod`, and reduced by `reduce_mod_reference`."""
    e, D, columns = integer_table(ct)
    conjugates = [[conjugate_mod(v, e) for v in column] for column in columns]
    target = D * D * ct.group_order
    sizes = ct.class_sizes
    width = 2 * euler_phi(e) - 1

    def holds(weighted_pairs, diagonal: bool) -> bool:
        total = [0] * width
        for weight, x, y in weighted_pairs:
            for i, a in enumerate(x):
                if a:
                    a *= weight
                    for k, b in enumerate(y, i):
                        if b:
                            total[k] += a * b
        total = reduce_mod_reference(total, e)
        expected = target if diagonal else 0
        return total[0] == expected and not any(total[1:])

    r = len(ct.rows)
    for a in range(r):
        for b in range(a, r):
            pairs = zip(sizes, (col[a] for col in columns), (conj[b] for conj in conjugates))
            if not holds(pairs, a == b):
                return f"row orthogonality fails for rows {a}, {b}"
    for k in range(len(sizes)):
        for l in range(k, len(sizes)):
            pairs = ((sizes[k], x, y) for x, y in zip(columns[k], conjugates[l]))
            if not holds(pairs, k == l):
                return f"column orthogonality fails for classes {k}, {l}"
    return None


def character_sum_reference(CT, ids, power: int) -> tuple[tuple[int, ...], int]:
    """(total, scale) of the character sum over the classes ids, one multiset
    at a time, with no memo.

    The reference for `counting._character_sums`, which forms the row
    products over a pair's head once per conductor and shares them among
    its last classes: here every multiset lifts its own columns at c, the
    lcm of its conductors, multiplies each row through and takes one
    `dot_mod` against its largest class's column."""
    ids = sorted(ids)
    c = lcm(*[CT.conductors[i] for i in ids])
    lifts = [CT.column(i, c) for i in ids]
    (_, first), *middle, (_, last) = lifts
    degrees = [row.degree for row in CT.rows]
    W = lcm(*degrees)
    terms = []
    for row, degree in enumerate(degrees):
        term = first[row]
        for _, vectors in middle:
            if not any(term):
                break
            term = dot_mod((term,), (vectors[row],), c)
        weight = (W // degree) ** power
        terms.append(term if weight == 1 else [weight * x for x in term])
    scale = W**power * prod([D for D, _ in lifts])
    return dot_mod(terms, last, c), scale


def tampered(CT, delta, row=-1, column=-1):
    """CT with delta (a Cyclotomic or a rational) added to one value, by
    default the last value of its last row."""
    if not isinstance(delta, Cyclotomic):
        delta = Cyclotomic.from_rational(delta)
    chi = CT.rows[row]
    values = list(chi.values)
    values[column] = cyclotomic_sum([(1, [values[column]]), (1, [delta])])
    rows = list(CT.rows)
    rows[row] = Character(degree=chi.degree, values=tuple(values))
    return replace(CT, rows=tuple(rows))
