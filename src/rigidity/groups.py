"""Enumeration of finite groups and index-based group arithmetic.

A group is materialized as a list of raw keys (see `elements`): a
permutation's images as `bytes` up to degree 256 and as a tuple past it; an
n×n matrix over F_p with p**n ≤ 257 as its permutation of the nonzero vectors
of F_p^n, in the same byte images; a larger matrix as its tuple of entry rows.
`index` maps each key to its position, and the group's element kind, chosen
from the generators by `elements.group_keys`, multiplies and inverts keys.
The keys are discovered breadth-first from the identity by
right-multiplication with a deduplicated, canonically sorted generator list.
Element 0 is always the identity and the discovery order is deterministic, so
two runs over the same generators produce identical tables.  No group
operation builds an element object; `element(i)` wraps key i as a
`Permutation` or `PrimeFieldMatrix` for printing and for the tests.

After enumeration all arithmetic is done on element indices.  `mult` is
one key product and keeps no memo, so no group holds a Cayley row; its one
caller is the solution scan (`counting.enumerate_solutions`).

`conjugate` is the one conjugation path, memoized in one row of |G| ints per
conjugator g, holding g⁻¹xg at position x.  The enumeration
computes x·g for every element x and stored generator g and keeps the index
it finds as R_g.  Being breadth-first, it first meets each k ≠ 0 as R_h[x]
for its parent x in the Schreier tree, so the R rows hold the tree, and left
multiplication by any c is a row of lookups: L_c[0] = c, L_c[k] = R_h[L_c[x]].
A stored generator's row C_g = R_g ∘ L_{g⁻¹} thus takes one key inverse
and no product; it is built whole on first use (`conjugation_row`), and the
R rows are dropped once every stored generator has its row.  Groups wrapped
from a closed key list (`from_closed_elements`) keep no R rows and build
a generator's row by key arithmetic.  Any other conjugator's row is
filled an entry at a time by key arithmetic.  The conjugators the program
uses are the stored generators, the centralizer generators of class
representatives and the entries that seed a census fingerprint.  Inverses
are memoized per element; no whole-group inverse map is built.  Subgroup
generation and the centralizer transversal use key arithmetic.
Centralizer generators are memoized per element; the scan
asks only for class representatives.  Element orders are not memoized.

Every closure in the toolkit (subgroups, conjugacy classes, orbits of solution
tuples) is one call of `orbit`, or of `orbit_partition` when a whole point set
is split into orbits.  Every generated subgroup is closed on indices by
`FiniteGroup._greedy_generators`, the derived subgroup from the orbits of the
generators' commutators under conjugation.  Subgroups are fingerprinted inside
their parent group, by conjugating the parent's indices by the subgroup's
generators, with one element order per class.

The named constructors (symmetric, alternating, cyclic, dihedral, orthogonal)
check their known order against the cap before enumerating anything, so a
request like Sym(50) fails fast instead of exhausting memory.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter

from .cyclotomic import _prime_factors
from .elements import Permutation, PrimeFieldMatrix, group_keys, matrix_kind
from .errors import (
    CapExceededError,
    IncompatibleGeneratorsError,
    SingularMatrixError,
    UnsupportedModulusError,
)

DEFAULT_CAP = 2_000_000


def orbit(seed, gens, act) -> set:
    """Closure of {seed} under act(point, g) for every g in gens."""
    members = {seed}
    queue = [seed]
    while queue:
        x = queue.pop()
        for g in gens:
            y = act(x, g)
            if y not in members:
                members.add(y)
                queue.append(y)
    return members


def orbit_partition(points, gens, act):
    """Yield (least point, orbit) for each orbit in the ascending sequence points.

    points must be a union of orbits; a point is marked as seen by its
    position, so no set of all points is ever built.  When points is
    range(n) a point is its own position; otherwise the position is found
    by bisection.
    """
    seen = bytearray(len(points))
    dense = points == range(len(points))
    for i, p in enumerate(points):
        if not seen[i]:
            members = orbit(p, gens, act)
            for m in members:
                seen[m if dense else bisect_left(points, m)] = 1
            yield p, members


class FiniteGroup:
    """A fully enumerated finite group; element 0 is the identity.

    `elements` holds keys and `index` maps each key to its position; `kind`
    does the arithmetic on keys (see `elements`).  `element(i)` is the
    element object at index i."""

    def __init__(self, kind, elements: list, generator_indices, index=None, right_rows=None):
        """elements is kept as given, not copied.  index, when given, maps
        each key to its position.  right_rows, when given, holds one row
        per stored generator g, in the order of generator_indices, of the
        indices of x·g over all x, as a breadth-first enumeration found them.

        Conjugations are memoized on demand, one row of |G| ints per
        conjugator (`conjugate`)."""
        self.kind = kind
        self.elements: list = elements
        if index is None:
            index = {g: i for i, g in enumerate(self.elements)}
            if len(index) != len(self.elements):
                raise ValueError("duplicate elements in group table")
        self.index: dict = index
        self.generator_indices: tuple[int, ...] = tuple(generator_indices)
        self._right_rows: list[list[int]] | None = right_rows
        self._conjugates: dict[int, list[int]] = {}
        self._inverses: dict[int, int] = {}
        self._centralizers: dict[int, tuple[int, ...]] = {}

    @classmethod
    def from_closed_elements(cls, kind, elements: list) -> "FiniteGroup":
        """Wrap an already-closed key list (identity first) as a group.

        The generating set is chosen by `_greedy_generators` over indices
        1..n-1; the list is closed unless a product it forms is not in it.
        """
        elements = list(elements)
        if not elements:
            raise ValueError("empty element list")
        if elements[0] != kind.identity:
            raise ValueError("element 0 must be the identity")
        group = cls(kind, elements, [])
        try:
            gens, _ = group._greedy_generators(range(1, len(elements)))
        except KeyError:
            raise ValueError("element list is not closed under multiplication") from None
        group.generator_indices = tuple(gens)
        return group

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity_index(self) -> int:
        return 0

    def element(self, i: int):
        """The element object (`Permutation` or `PrimeFieldMatrix`) at index i."""
        self._check_index(i)
        return self.kind.wrap(self.elements[i])

    def _check_index(self, i: int) -> None:
        if not isinstance(i, int) or not 0 <= i < len(self.elements):
            raise IndexError(
                f"element index {i!r} outside 0..{len(self.elements) - 1}"
            )

    def mult(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j], by one key product."""
        if i < 0 or j < 0:
            self._check_index(min(i, j))
        self._check_index(max(i, j))
        elements = self.elements
        return self.index[self.kind.mul(elements[i], elements[j])]

    def inverse(self, i: int) -> int:
        """Index of elements[i]⁻¹, by key arithmetic, memoized per element."""
        try:
            return self._inverses[i]
        except KeyError:
            self._check_index(i)
            k = self._inverses[i] = self.index[self.kind.inverse(self.elements[i])]
            return k

    def conjugation_row(self, g: int) -> list[int]:
        """The whole row of a stored generator g: g⁻¹xg's index at position x.

        Built on first use and memoized: from the enumeration's R rows by list
        lookups while the group keeps them, else by key arithmetic."""
        row = self._conjugates.get(g)
        if row is None:
            if g not in self.generator_indices:
                raise ValueError(f"element {g!r} is not a stored generator")
            rights, elements = self._right_rows, self.elements
            if rights is None:
                mul, index = self.kind.mul, self.index
                right, left = elements[g], elements[self.inverse(g)]
                row = [index[mul(mul(left, x), right)] for x in elements]
            else:
                # L_{g⁻¹} in enumeration order: R_h[x] is new exactly when it
                # is the next index, and then L[R_h[x]] = R_h[L[x]]
                row = [self.inverse(g)]
                new = 1
                for x, left in enumerate(row):
                    for right in rights:
                        if right[x] == new:
                            row.append(right[left])
                            new += 1
                # C_g = R_g ∘ L_{g⁻¹}, written over L
                right = rights[self.generator_indices.index(g)]
                for x, y in enumerate(row):
                    row[x] = right[y]
            self._conjugates[g] = row
            if all(h in self._conjugates for h in self.generator_indices):
                self._right_rows = None
        return row

    def conjugate(self, i: int, g: int) -> int:
        """Index of g⁻¹ x g for x = elements[i], memoized in g's row.

        A stored generator's row is `conjugation_row`, built whole; any other
        row is filled an entry at a time by key arithmetic.  An index past the
        end is checked only where it would fail, so a memo hit costs no check."""
        if i < 0 or g < 0:
            self._check_index(min(i, g))
        try:
            row = self._conjugates[g]
            k = row[i]
        except KeyError:
            # g's first conjugation: check both before memoizing its row
            self._check_index(g)
            self._check_index(i)
            if g in self.generator_indices:
                return self.conjugation_row(g)[i]
            row = self._conjugates[g] = [-1] * len(self.elements)
            k = -1
        except IndexError:
            self._check_index(i)
            raise
        if k < 0:
            elements, mul = self.elements, self.kind.mul
            k = row[i] = self.index[
                mul(mul(elements[self.inverse(g)], elements[i]), elements[g])
            ]
        return k

    def element_order(self, i: int) -> int:
        """Least k ≥ 1 with elements[i]^k = identity, by repeated products."""
        self._check_index(i)
        mul, identity = self.kind.mul, self.kind.identity
        x = self.elements[i]
        power, k = x, 1
        while power != identity:
            power, k = mul(power, x), k + 1
        return k

    def _greedy_generators(self, seed) -> tuple[list[int], set[int]]:
        """(kept, generated): walk the seed indices in order, keeping each one
        not yet generated by those kept so far, at one `orbit` of index 0 per
        index kept.  The walk is deterministic, so equal inputs give equal
        choices.  A product outside the element list raises KeyError."""
        elements, index, mul = self.elements, self.index, self.kind.mul
        kept: list[int] = []
        covered = {0}
        for x in seed:
            if x not in covered:
                kept.append(x)
                covered = orbit(0, kept, lambda y, g: index[mul(elements[y], elements[g])])
        return kept, covered

    def centralizer_generators(self, i: int) -> tuple[int, ...]:
        """Generators of the centralizer of x = elements[i], memoized per element.

        By Schreier's lemma: walk the class of x under conjugation by the
        stored generators, keeping for each member y an element u_y with
        u_y⁻¹·x·u_y = y.  Each step y → y^g that the walk does not take
        gives u_y·g·u_{y^g}⁻¹, which centralizes x, and these generate the
        centralizer.  Of their indices, `_greedy_generators` keeps a few in
        ascending order, so the choice is deterministic.
        """
        gens = self._centralizers.get(i)
        if gens is None:
            elements, index = self.elements, self.index
            mul, inverse = self.kind.mul, self.kind.inverse
            transversal = {i: elements[0]}
            queue = [i]
            schreier = set()
            for y in queue:
                u = transversal[y]
                for g in self.generator_indices:
                    z = self.conjugate(y, g)
                    ug = mul(u, elements[g])
                    if z not in transversal:
                        transversal[z] = ug
                        queue.append(z)
                    else:
                        schreier.add(index[mul(ug, inverse(transversal[z]))])
            kept, _ = self._greedy_generators(sorted(schreier))
            gens = self._centralizers[i] = tuple(kept)
        return gens

    def subgroup_generated(self, seed) -> set[int]:
        """Index set of the subgroup generated by the seed indices, closed on
        indices by `_greedy_generators`: one closure per seed index it keeps."""
        seed = sorted(set(seed))
        for s in seed:
            self._check_index(s)
        return self._greedy_generators(seed)[1]

    def derived_subgroup(self) -> set[int]:
        """Index set of the commutator subgroup: the subgroup generated by the
        conjugacy classes of the stored generators' commutators, formed by key
        arithmetic."""
        gens = self.generator_indices
        elements, index = self.elements, self.index
        mul, inverse = self.kind.mul, self.kind.inverse
        conjugates = set()
        for a in gens:
            for b in gens:
                x, y = elements[a], elements[b]
                c = index[mul(mul(mul(inverse(x), inverse(y)), x), y)]
                if c not in conjugates:
                    conjugates |= orbit(c, gens, self.conjugate)
        return self.subgroup_generated(conjugates)

    def subgroup(self, indices) -> "FiniteGroup":
        """Materialize a multiplication-closed index set as its own group."""
        idx = sorted(set(indices))
        for i in idx:
            self._check_index(i)
        if not idx or idx[0] != 0:
            raise ValueError("subgroup must contain the identity (index 0)")
        return FiniteGroup.from_closed_elements(self.kind, [self.elements[i] for i in idx])

    def fingerprint(self, seed=None) -> tuple:
        """(order, sorted class sizes, sorted (element order, count) pairs).

        Describes the subgroup generated by the seed indices, or the whole
        group when seed is None.  Its classes are found inside this group, as
        orbits under conjugation by the seed (or by the stored generators);
        element order is a class function, so it is taken once per class.
        """
        if seed is None:
            gens, members = self.generator_indices, range(self.order)
        else:
            gens = sorted(set(seed))
            members = sorted(self.subgroup_generated(gens))
        sizes, profile = [], Counter()
        for least, c in orbit_partition(members, gens, self.conjugate):
            sizes.append(len(c))
            profile[self.element_order(least)] += len(c)
        return (len(members), tuple(sorted(sizes)), tuple(sorted(profile.items())))

    def __repr__(self):
        kind = type(self.element(0)).__name__
        return f"FiniteGroup(order={self.order}, realization={kind})"


def closure_enumerate(gens, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Enumerate the group generated by the element objects gens,
    breadth-first from the identity, on the keys `group_keys` chooses.
    Matrix generators are checked to be invertible before any key is built."""
    gens = list(gens)
    if not gens:
        raise ValueError("at least one generator required")
    first = gens[0]
    for g in gens[1:]:
        if not first.compatible_with(g):
            raise IncompatibleGeneratorsError(
                f"incompatible generators: {first!r} vs {g!r}"
            )
    if isinstance(first, PrimeFieldMatrix):
        for g in gens:
            if g.determinant() == 0:
                raise SingularMatrixError(f"generator is singular mod {g.p}: {g!r}")
    kind, unique = group_keys([g for _, g in sorted({g.encode(): g for g in gens}.items())])
    mul = kind.mul
    elements = [kind.identity]
    index = {kind.identity: 0}
    # right[k][x] is the index of elements[x] * unique[k], the index dict's own int
    right = [[] for _ in unique]
    for x in elements:
        for g, row in zip(unique, right):
            y = mul(x, g)
            k = index.get(y)
            if k is None:
                if len(elements) >= cap:
                    raise CapExceededError(
                        f"closure exceeded the cap of {cap} elements"
                    )
                k = index[y] = len(elements)
                elements.append(y)
            row.append(k)
    gen_indices = [index[g] for g in unique]
    return FiniteGroup(kind, elements, gen_indices, index, right)


def so3_enumerate(p: int) -> FiniteGroup:
    """All 3×3 matrices M over F_p with M·Mᵀ = I and det M = 1.

    The rows of M are an orthonormal pair (r1, r2) and one third row, which
    the pair fixes as r3 = r1 × r2 mod p.  Nothing is assumed to get there:
    - span(r1, r2) is nondegenerate (its Gram matrix is I), so its orthogonal
      complement is one line, λ·(r1 × r2);
    - |r1 × r2|² = (r1·r1)(r2·r2) − (r1·r2)² = 1, so r3·r3 = 1 gives λ² = 1;
    - det(r1, r2, λ·r1 × r2) = λ·|r1 × r2|² = λ, so det M = 1 gives λ = 1.
    A naive scan of all p⁹ candidates lists the matrices in lexicographic
    order of (r1, r2, r3), and r3 is fixed by (r1, r2); so one candidate per
    orthonormal pair, pairs in lexicographic order, gives the same list in
    the same order.  The matrices are keyed by `group_keys`, and the
    identity is then moved to the front.
    """
    if p not in (3, 5, 7):
        raise UnsupportedModulusError(
            f"supported moduli are 3, 5, 7 (got {p})"
        )
    rng = range(p)
    unit = [(a, b, c) for a in rng for b in rng for c in rng if (a * a + b * b + c * c) % p == 1]
    mats = []
    for r1 in unit:
        a, b, c = r1
        for r2 in unit:
            x, y, z = r2
            if (a * x + b * y + c * z) % p == 0:
                mats.append((r1, r2, ((b * z - c * y) % p, (c * x - a * z) % p, (a * y - b * x) % p)))
    kind, keys = group_keys(list(map(matrix_kind(p, 3).wrap, mats)))
    keys.remove(kind.identity)
    keys.insert(0, kind.identity)
    return FiniteGroup.from_closed_elements(kind, keys)


def _check_known_order(order: int, label: str, cap: int) -> None:
    if order > cap:
        raise CapExceededError(f"{label} has order {order}, exceeding cap {cap}")


def _check_factorial_cap(n: int, divisor: int, label: str, cap: int) -> None:
    """Reject when n!/divisor > cap, without ever computing a huge factorial."""
    product = 1
    for k in range(2, n + 1):
        product *= k
        if product > cap * divisor:
            raise CapExceededError(f"{label} has order exceeding cap {cap}")


def sym_group(n: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Symmetric group on {0, ..., n-1}."""
    if n < 1:
        raise ValueError(f"degree must be ≥ 1, got {n}")
    _check_factorial_cap(n, 1, f"Sym({n})", cap)
    if n == 1:
        gens = [Permutation.identity(1)]
    elif n == 2:
        gens = [Permutation((1, 0))]
    else:
        gens = [
            Permutation.from_cycles(n, [(0, 1)]),
            Permutation.from_cycles(n, [tuple(range(n))]),
        ]
    return closure_enumerate(gens, cap)


def alt_group(n: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Alternating group on {0, ..., n-1}."""
    if n < 1:
        raise ValueError(f"degree must be ≥ 1, got {n}")
    _check_factorial_cap(n, 2, f"Alt({n})", cap)
    if n <= 2:
        gens = [Permutation.identity(n)]
    elif n == 3:
        gens = [Permutation.from_cycles(3, [(0, 1, 2)])]
    elif n % 2 == 1:
        gens = [
            Permutation.from_cycles(n, [(0, 1, 2)]),
            Permutation.from_cycles(n, [tuple(range(n))]),
        ]
    else:
        # even n: the full n-cycle is odd, use an (n-1)-cycle on 1..n-1
        gens = [
            Permutation.from_cycles(n, [(0, 1, 2)]),
            Permutation.from_cycles(n, [tuple(range(1, n))]),
        ]
    return closure_enumerate(gens, cap)


def cyc_group(n: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Cyclic group of order n, as the n-cycle on {0, ..., n-1}."""
    if n < 1:
        raise ValueError(f"order must be ≥ 1, got {n}")
    _check_known_order(n, f"Cyc({n})", cap)
    if n == 1:
        gens = [Permutation.identity(1)]
    else:
        gens = [Permutation.from_cycles(n, [tuple(range(n))])]
    return closure_enumerate(gens, cap)


def dih_group(n: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Dihedral group of order 2n."""
    if n < 1:
        raise ValueError(f"parameter must be ≥ 1, got {n}")
    _check_known_order(2 * n, f"Dih({n})", cap)
    if n == 1:
        gens = [Permutation((1, 0))]
    elif n == 2:
        # Klein four group needs degree 4 to realize both commuting involutions
        gens = [
            Permutation.from_cycles(4, [(0, 1)]),
            Permutation.from_cycles(4, [(2, 3)]),
        ]
    else:
        rotation = Permutation(tuple((i + 1) % n for i in range(n)))
        reflection = Permutation(tuple((n - i) % n for i in range(n)))
        gens = [rotation, reflection]
    return closure_enumerate(gens, cap)


def perm_group(degree: int, generator_cycles, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Group generated by explicit permutations, each given as cycle lists."""
    if degree < 1:
        raise ValueError(f"degree must be ≥ 1, got {degree}")
    gens = [Permutation.from_cycles(degree, cycles) for cycles in generator_cycles]
    if not gens:
        gens = [Permutation.identity(degree)]
    return closure_enumerate(gens, cap)


def mat_group(p: int, n: int, flat_matrices, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Group generated by explicit n×n matrices over F_p (row-major entries)."""
    if p >= 1 << 16:
        raise ValueError(f"modulus {p} too large (must be < 2^16)")
    if _prime_factors(p) != [p]:
        raise ValueError(f"modulus {p} is not prime")
    if n < 1:
        raise ValueError(f"dimension must be ≥ 1, got {n}")
    gens = [PrimeFieldMatrix.from_flat(p, n, flat) for flat in flat_matrices]
    if not gens:
        gens = [PrimeFieldMatrix.identity(p, n)]
    return closure_enumerate(gens, cap)


def omega3_group(p: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Derived subgroup of the 3-dimensional orthogonal group over F_p."""
    _check_known_order(p * (p * p - 1) // 2, f"Omega3({p})", cap)
    full = so3_enumerate(p)
    return full.subgroup(full.derived_subgroup())


def so3_group(p: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Cap-checked wrapper around so3_enumerate."""
    _check_known_order(p * (p * p - 1), f"SO3({p})", cap)
    return so3_enumerate(p)
