"""Counting and enumerating class-tuple solutions of x₁x₂⋯x_s = 1.

Two independent routes produce every count: the character-theoretic sum
(∏|C_i|/|G|)·Σ_χ ∏χ(g_i)/χ(1)^{s−2}, and an exhaustive scan of the group's
elements.  Neither route calls the other; `_check_routes` is the one place
they are compared.

The scan is reduced by conjugation invariance (Serre, *Topics in Galois
Theory* §7; Völklein, *Groups as Galois Groups* ch. 3).  Conjugating a
solution conjugates its first entry, and each member of C₁ is reached from
rep₁ by |C_G(rep₁)| elements, so every member of C₁ starts equally many
solutions: the count is |C₁| times the number of solutions with x₁ = rep₁.
The scan fixes x₁ = rep₁, iterates every remaining class but the largest of
them and solves for that one.  The G-orbits of all solutions correspond one
to one to the C_G(rep₁)-orbits of those starting with rep₁, and a G-orbit is
|C₁| times the size of its C_G(rep₁)-orbit.  rep₁ is the least member of
C₁ (`conjugacy` guarantees it), so each orbit's least tuple starts with
rep₁ and is the least tuple of its C_G(rep₁)-orbit.

The all-triples loop (`count_equivalence`) needs counts, not tuples, so it
scans once per ordered pair (i, j) and not once per triple: with x₁ = rep_i
fixed, each x₂ ∈ C_j leaves one third entry (rep_i·x₂)⁻¹, and sorting those
by class gives, for every k, the solutions of (i, j, k) that start with rep_i
(`scan_class_counts`).  By the argument above the scan count of (i, j, k) is
|C_i| times that number: r·|G| candidates for all r³ triples.  The pass
multiplies keys and sorts each product rep_i·x₂ by its class; the third
entry's class is then the inverse class, read from the class table.

The character route computes with plain integers, at c = the lcm of the
conductors of the classes it reads.  Each column is held as D_k times its
integer coordinates in the power basis at c (`CharacterTable.column`), each
row multiplies all columns but the last and is weighted by the integer
(W/χ(1))^{s−2} with W the lcm of the degrees, one `dot_mod` against the last
column sums the rows, and one exact integer division by W^{s−2}·∏D_k·|G|
gives the count.  `_character_sums` is the one sum kernel: it forms those
weighted row products over a sorted head of classes once per conductor and
takes one `dot_mod` per last class.  The sum is memoized per table under the
sorted class ids (`CharacterTable.character_sums`): c depends only on the
classes and the product mod Φ_c is commutative.  `count_equivalence` fills
the memo with one kernel call per class pair i ≤ j, every last class k ≥ j
at once, and takes one count per multiset and one class-algebra constant per
(multiset, z), read for every ordering.  Neither scan reads the table or its
memos.

Solution sets are decomposed into orbits under simultaneous conjugation,
g·(x₁,…,x_s) = (g⁻¹x₁g, …, g⁻¹x_sg); a tuple of classes is rigid when the
solution set is nonempty and forms a single orbit.  The orbits partition the
solutions, so the scan's count is the sum of their sizes, and a census orbit
carries the fingerprint of the subgroup its first two entries generate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import lcm, prod

from .chartab import CharacterTable
from .conjugacy import ClassTable, classes_of_element_order
from .cyclotomic import dot_mod
from .errors import CapExceededError, NonIntegerResultError, VerificationError
from .groups import FiniteGroup, orbit_partition

DEFAULT_ITERATION_CAP = 100_000_000


@dataclass(frozen=True)
class SolutionSet:
    """The solutions of a class tuple whose first entry is rep₁.

    `reduced` holds them in ascending order; the whole set has
    first_class_size = |C₁| times as many solutions, and `len` counts it.
    """

    class_ids: tuple[int, ...]
    first_class_size: int
    reduced: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return self.first_class_size * len(self.reduced)


@dataclass(frozen=True)
class Orbit:
    representative: tuple[int, ...]
    size: int
    stabilizer_order: int


@dataclass(frozen=True)
class RigidityVerdict:
    """One class tuple's result: its character count and its scan orbits.

    Empty when there are no solutions, Rigid when they form one orbit,
    NotRigid otherwise.
    """

    count: int
    orbits: tuple[Orbit, ...]

    @property
    def kind(self) -> str:
        if not self.orbits:
            return "empty"
        return "rigid" if len(self.orbits) == 1 else "not-rigid"

    @property
    def stabilizer_order(self) -> int | None:
        return self.orbits[0].stabilizer_order if self.kind == "rigid" else None

    @property
    def num_orbits(self) -> int:
        return len(self.orbits)


def _check_ids(class_ids, r: int) -> tuple[int, ...]:
    """The class ids as a tuple of at least 2, each in 0..r-1."""
    ids = tuple(class_ids)
    if len(ids) < 2:
        raise ValueError(f"need at least 2 classes, got {len(ids)}")
    for i in ids:
        if not 0 <= i < r:
            raise IndexError(f"class id {i} outside 0..{r - 1}")
    return ids


def _check_iterations(sizes, cap: int) -> None:
    """The scan cap: the product of all class sizes but the largest, the
    iterations of a scan over every x₁, may not exceed cap."""
    iterations = prod(sizes) // max(sizes)
    if iterations > cap:
        raise CapExceededError(
            f"scan needs {iterations} iterations, exceeding cap {cap}"
        )


def _check_routes(ids, count: int, scanned: int) -> None:
    """The one comparison of the character route with the scan route."""
    if count != scanned:
        raise VerificationError(
            f"character count {count} disagrees with scan {scanned} for tuple {ids}"
        )


def _character_sums(CT: CharacterTable, head, lasts, power: int) -> list:
    """[(total, scale) for last in lasts], with Σ_χ ∏_i χ(g_i)/χ(1)^power =
    total/scale over the classes head + (last,).

    total = Σ_χ ∏_i D_i·χ(g_i) · (W/χ(1))^power is an integer vector at c, the
    lcm of the classes' conductors, with D_i from `CT.column(i, c)` and W the
    lcm of the degrees, and scale = W^power·∏_i D_i.  The sum kernel: the
    weighted row products over `head` are formed once per conductor c the
    lasts need, held only for this call, and each last takes one `dot_mod`
    against its column.  Callers pass head sorted and every last ≥ head[-1],
    so that head + (last,) is the sorted key of the memo.
    """
    degrees = [row.degree for row in CT.rows]
    W = lcm(*degrees)
    c_head = lcm(*[CT.conductors[i] for i in head])
    heads = {}
    found = []
    for last in lasts:
        c = lcm(c_head, CT.conductors[last])
        if c not in heads:
            lifts = [CT.column(i, c) for i in head]
            (_, first), *middle = lifts
            terms = []
            for row, degree in enumerate(degrees):
                term = first[row]
                for _, vectors in middle:
                    if not any(term):
                        break
                    term = dot_mod((term,), (vectors[row],), c)
                weight = (W // degree) ** power
                terms.append(term if weight == 1 else [weight * x for x in term])
            heads[c] = terms, W**power * prod([D for D, _ in lifts])
        terms, scale = heads[c]
        D, vectors = CT.column(last, c)
        found.append((dot_mod(terms, vectors, c), scale * D))
    return found


def _character_sum(CT: CharacterTable, ids, power: int) -> tuple[tuple[int, ...], int]:
    """(total, scale) of `_character_sums` for the classes ids, memoized in
    CT.character_sums under the sorted ids: the product mod Φ_c is
    commutative, so the sum depends only on the multiset of classes.
    `count_equivalence` fills the same memo by class pair."""
    key = (tuple(sorted(ids)), power)
    found = CT.character_sums.get(key)
    if found is None:
        *head, last = key[0]
        (found,) = _character_sums(CT, head, (last,), power)
        CT.character_sums[key] = found
    return found


def frobenius_count(CT: CharacterTable, class_ids) -> int:
    """Number of tuples (x₁,…,x_s) ∈ C₁×⋯×C_s with product 1, by characters."""
    ids = _check_ids(class_ids, CT.num_classes)
    sizes_product = 1
    for i in ids:
        sizes_product *= CT.class_sizes[i]
    total, scale = _character_sum(CT, ids, len(ids) - 2)
    # the power basis starts with 1, so the sum is rational when the rest is 0
    if any(total[1:]):
        raise NonIntegerResultError(f"character sum is irrational for tuple {ids}")
    numerator, denominator = total[0] * sizes_product, scale * CT.group_order
    value, remainder = divmod(numerator, denominator)
    if remainder or value < 0:
        raise NonIntegerResultError(
            f"character sum gives non-integer {Fraction(numerator, denominator)} "
            f"for tuple {ids}"
        )
    return value


def class_algebra_constant(CT: CharacterTable, x: int, y: int, z: int) -> int:
    """a_{xyz} = #{(a, b) ∈ C_x × C_y : a·b·z₀ = 1} for the representative z₀.

    Computed as (|C_x||C_y| / |G|)·Σ_χ χ(x)χ(y)χ(z)/χ(1) from the same
    _character_sum(CT, (x, y, z), 1) that frobenius_count uses, so the
    identity frobenius_count(x, y, z) = |C_z| · a_{xyz} holds by construction.
    Checking it in count_equivalence catches only a non-integer a_{xyz}
    (raised here) or CT.class_sizes[z] != T.classes[z].size.  The sum comes
    from the table's memo under the sorted ids, exact because the product
    mod Φ_c is commutative; the division and its check are this function's
    own, so a_{xyz} is never derived from the count.
    """
    _check_ids((x, y, z), CT.num_classes)
    total, scale = _character_sum(CT, (x, y, z), 1)
    if any(total[1:]):
        raise NonIntegerResultError(f"irrational constant for ({x}, {y}, {z})")
    sizes_product = CT.class_sizes[x] * CT.class_sizes[y]
    numerator, denominator = total[0] * sizes_product, scale * CT.group_order
    value, remainder = divmod(numerator, denominator)
    if remainder or value < 0:
        raise NonIntegerResultError(
            f"non-integer constant {Fraction(numerator, denominator)} for ({x}, {y}, {z})"
        )
    return value


def enumerate_solutions(
    G: FiniteGroup,
    T: ClassTable,
    class_ids,
    cap: int = DEFAULT_ITERATION_CAP,
) -> SolutionSet:
    """Exhaustive scan of the solutions with x₁ = rep₁.

    Iterates every class after the first except the largest of them, C_m, and
    solves for x_m.  The cap bounds the product of all class sizes but the
    largest, the iterations of a scan over every x₁.  Beyond the group, the
    scan holds its solutions and at most one memoized inverse per element
    (`FiniteGroup.inverse`); `mult` keeps no memo.
    """
    ids = _check_ids(class_ids, len(T.classes))
    sizes = [T.classes[i].size for i in ids]
    _check_iterations(sizes, cap)
    rest = sizes[1:]
    m = 1 + rest.index(max(rest))
    member_lists = [T.classes[i].members for i in ids[1:m] + ids[m + 1 :]]
    rep = T.classes[ids[0]].representative
    target = ids[m]
    class_of = T.class_of
    mult, inverse = G.mult, G.inverse
    reduced = []
    for combo in iter_product(*member_lists):
        # x_m = pre⁻¹·suf⁻¹ with pre = rep·x₂⋯x_{m−1} and suf = x_{m+1}⋯x_s
        head, tail = combo[: m - 1], combo[m - 1 :]
        pre = rep
        for x in head:
            pre = mult(pre, x)
        xm = inverse(pre)
        if tail:
            suf = tail[0]
            for x in tail[1:]:
                suf = mult(suf, x)
            xm = mult(xm, inverse(suf))
        if class_of[xm] == target:
            reduced.append((rep, *head, xm, *tail))
    reduced.sort()
    return SolutionSet(
        class_ids=ids, first_class_size=sizes[0], reduced=tuple(reduced)
    )


def orbit_decomposition(G: FiniteGroup, S: SolutionSet) -> tuple[Orbit, ...]:
    """Orbits under simultaneous conjugation; representatives are least tuples.

    Found as the orbits of C_G(rep₁) on S.reduced; each is the part of one
    G-orbit |C₁| times its size that starts with rep₁, and holds its least
    tuple.  They partition S, so their sizes sum to len(S).
    """
    if not S.reduced:
        return ()

    def act(sol, g):
        # g centralizes the first entry
        return (sol[0], *(G.conjugate(x, g) for x in sol[1:]))

    gens = G.centralizer_generators(S.reduced[0][0])
    orbits = []
    for seed, orbit in orbit_partition(S.reduced, gens, act):
        size = S.first_class_size * len(orbit)
        if G.order % size != 0:
            raise VerificationError("orbit size does not divide the group order")
        orbits.append(
            Orbit(representative=seed, size=size, stabilizer_order=G.order // size)
        )
    return tuple(orbits)


def verdict_from_routes(ids, count: int, orbits: tuple[Orbit, ...]) -> RigidityVerdict:
    """A tuple's verdict from its character count and its scan orbits."""
    _check_routes(ids, count, sum(orbit.size for orbit in orbits))
    return RigidityVerdict(count=count, orbits=orbits)


def rigidity_verdict(
    G: FiniteGroup,
    T: ClassTable,
    CT: CharacterTable,
    class_ids,
    cap: int = DEFAULT_ITERATION_CAP,
) -> RigidityVerdict:
    """Empty / Rigid / NotRigid for one class tuple, checked by both routes."""
    count = frobenius_count(CT, class_ids)
    solutions = enumerate_solutions(G, T, class_ids, cap)
    return verdict_from_routes(
        solutions.class_ids, count, orbit_decomposition(G, solutions)
    )


def scan_class_counts(G: FiniteGroup, T: ClassTable, i: int, j: int) -> list[int]:
    """For every class k, the number of x ∈ C_j with (rep_i·x)⁻¹ ∈ C_k.

    With x₁ = rep_i, each x₂ ∈ C_j leaves exactly one third entry,
    x₃ = (rep_i·x₂)⁻¹, so entry k counts the solutions of (i, j, k) that
    start with rep_i.  One pass over C_j, by key arithmetic, counts the
    class of each rep_i·x; (rep_i·x)⁻¹ ∈ C_k exactly when rep_i·x lies in
    the inverse class of C_k, so entry k is read at `T.inverse_class[k]`.
    Reads G and T only.
    """
    counts = [0] * T.num_classes
    elements, index, class_of, mul = G.elements, G.index, T.class_of, G.kind.mul
    rep = elements[T.classes[i].representative]
    for x in T.classes[j].members:
        counts[class_of[index[mul(rep, elements[x])]]] += 1
    return [counts[k] for k in T.inverse_class]


def count_equivalence(
    G: FiniteGroup,
    T: ClassTable,
    CT: CharacterTable,
    cap: int = DEFAULT_ITERATION_CAP,
) -> tuple[int, list[dict]]:
    """Both routes on every class triple: (number of triples, mismatch records).

    The scan route makes one pass per ordered pair (i, j), `scan_class_counts`,
    and reads the count of every (i, j, k) off it: each member of C_i starts
    equally many solutions (the conjugation argument of `enumerate_solutions`),
    so the scan count is |C_i| times entry k.  Each triple is held to the
    cap of `enumerate_solutions`, as if it were scanned on its own.

    The character route fills the table's memo with one `_character_sums`
    call per class pair i ≤ j when the loop reaches it, for every last class
    k ≥ j that the memo lacks.  It takes frobenius_count once per multiset
    and class_algebra_constant once per (multiset, z), and reads both for
    every ordering: the count depends only on the multiset, the constant on
    the multiset and z.  Loop order meets each in its sorted form first, so
    an error names the same triple as a call per ordered triple would.  A
    triple mismatches when the scan disagrees with the character count, or
    when the count breaks frobenius_count(x, y, z) = |C_z| · a_{xyz}.
    """
    r = T.num_classes
    sizes = [c.size for c in T.classes]
    memo = CT.character_sums
    counts, constants = {}, {}
    mismatches = []
    for i, j in iter_product(range(r), repeat=2):
        if i <= j:
            # (i, j, k) for k ≥ j is each multiset's first, sorted, ordering
            lasts = [k for k in range(j, r) if ((i, j, k), 1) not in memo]
            if lasts:
                for k, found in zip(lasts, _character_sums(CT, (i, j), lasts, 1)):
                    memo[(i, j, k), 1] = found
        scan = scan_class_counts(G, T, i, j)
        for k in range(r):
            ids = (i, j, k)
            multiset = tuple(sorted(ids))
            count = counts.get(multiset)
            if count is None:
                count = counts[multiset] = frobenius_count(CT, ids)
            _check_iterations((sizes[i], sizes[j], sizes[k]), cap)
            scanned = sizes[i] * scan[k]
            constant = constants.get((multiset, k))
            if constant is None:
                constant = constants[multiset, k] = class_algebra_constant(CT, *ids)
            try:
                _check_routes(ids, count, scanned)
            except VerificationError:
                agrees = False
            else:
                agrees = count == sizes[k] * constant
            if not agrees:
                mismatches.append(
                    {
                        "class-ids": list(ids),
                        "character-count": count,
                        "scan-count": scanned,
                        "class-algebra-constant": constant,
                    }
                )
    return r**3, mismatches


@dataclass(frozen=True)
class CensusOrbit:
    """An orbit with the fingerprint of the subgroup its first two entries generate."""

    representative: tuple[int, ...]
    size: int
    stabilizer_order: int
    subgroup_fingerprint: tuple

    @property
    def subgroup_order(self) -> int:
        return self.subgroup_fingerprint[0]


@dataclass(frozen=True)
class AbcCensus:
    orders: tuple[int, int, int]
    decompositions: tuple[tuple[tuple[int, int, int], tuple[Orbit, ...]], ...]
    orbits: tuple[CensusOrbit, ...]

    @property
    def per_tuple(self) -> tuple[tuple[tuple[int, int, int], int], ...]:
        return tuple(
            (ids, sum(orbit.size for orbit in orbits))
            for ids, orbits in self.decompositions
        )

    @property
    def total(self) -> int:
        return sum(n for _, n in self.per_tuple)


def abc_census(
    G: FiniteGroup,
    T: ClassTable,
    a: int,
    b: int,
    c: int,
    cap: int = DEFAULT_ITERATION_CAP,
) -> AbcCensus:
    """Census of all (a, b, c)-triples: orbits per tuple and in all, with generation."""
    xs = classes_of_element_order(T, a)
    ys = classes_of_element_order(T, b)
    zs = classes_of_element_order(T, c)
    decompositions = tuple(
        (ids, orbit_decomposition(G, enumerate_solutions(G, T, ids, cap)))
        for ids in iter_product(xs, ys, zs)
    )
    # conjugation keeps each class tuple, so these are the orbits of the union
    all_orbits = sorted(
        (orbit for _, orbits in decompositions for orbit in orbits),
        key=lambda orbit: orbit.representative,
    )
    orbits = tuple(
        CensusOrbit(
            representative=orbit.representative,
            size=orbit.size,
            stabilizer_order=orbit.stabilizer_order,
            subgroup_fingerprint=G.fingerprint(orbit.representative[:2]),
        )
        for orbit in all_orbits
    )
    return AbcCensus(orders=(a, b, c), decompositions=decompositions, orbits=orbits)
