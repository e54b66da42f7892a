"""Exact values in cyclotomic fields, and integer arithmetic on their coordinates.

A `Cyclotomic` value is stored as rational coordinates over the power basis
{ζ_e^k : 0 ≤ k < φ(e)} modulo the e-th cyclotomic polynomial, with e the
minimal conductor admitting the value.  The representation is unique, so
equality is structural and hashing is safe.  Since the power basis of ζ_e is
an integral basis of the ring of integers of Q(ζ_e), a value is an algebraic
integer exactly when every stored coordinate has denominator 1.

Conductor minimization walks the prime divisors p of e and attempts to
rewrite the value over the subfield generated by ζ_{e/p} = ζ_e^p; the value
lies in that subfield exactly when the linear system over the subfield's
basis vectors is solvable.  This drops e ≡ 2 (mod 4) conductors automatically
(those fields coincide with their odd-conductor subfield), so stored
conductors are never ≡ 2 mod 4.

`Cyclotomic` is a value type: it is built (`from_rational`,
`from_exponent_map`, `zeta`), compared, hashed, ordered and printed, and
has no arithmetic operators.  All arithmetic runs on integer vectors at one
fixed conductor: `integer_coordinates` lifts values to integer power-basis
vectors with one common denominator, `multiply_mod` multiplies two of them
and `conjugate_mod` applies ζ ↦ ζ⁻¹ (complex conjugation), both reduced
mod Φ_e without minimizing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

_ZERO = Fraction(0)


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _exact_poly_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials (coefficients low to high)."""
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        coeff = num[shift + len(den) - 1]
        if coeff % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        factor = coeff // den[-1]
        quot[shift] = factor
        if factor:
            for i, c in enumerate(den):
                num[shift + i] -= factor * c
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Φ_n, low degree first, monic."""
    if n < 1:
        raise ValueError(f"conductor must be ≥ 1, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]
    quot = list(poly)
    for d in _divisors(n):
        if d != n:
            quot = _exact_poly_div(quot, cyclotomic_polynomial(d))
    return tuple(quot)


def euler_phi(n: int) -> int:
    """φ(n), read off as the degree of Φ_n."""
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _zeta_powers(e: int) -> tuple[tuple[int, ...], ...]:
    """Power-basis coordinates of ζ_e^k for every k in [0, e)."""
    phi = euler_phi(e)
    cp = cyclotomic_polynomial(e)
    out = []
    vec = [0] * phi
    vec[0] = 1
    for _ in range(e):
        out.append(tuple(vec))
        carry = vec[phi - 1]
        vec = [0] + vec[: phi - 1]
        if carry:
            for i in range(phi):
                vec[i] -= carry * cp[i]
    return tuple(out)


def _solve_exact(columns: list[tuple], target: list[Fraction]) -> list[Fraction] | None:
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
    solution = [_ZERO] * cols
    for i, c in enumerate(pivots):
        solution[c] = mat[i][cols]
    # free columns (value 0) only arise if the columns are dependent; they are
    # basis vectors of a subfield here, so this does not happen in practice
    return solution


def _try_descend(e: int, vec: list[Fraction], p: int) -> list[Fraction] | None:
    """Rewrite vec over the basis of Q(ζ_{e/p}) if the value lies there."""
    e2 = e // p
    powers = _zeta_powers(e)
    columns = [powers[(p * j) % e] for j in range(euler_phi(e2))]
    return _solve_exact(columns, vec)


class Cyclotomic:
    """An element of a cyclotomic field in canonical minimal-conductor form."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: dict):
        # trusted constructor: callers must pass canonical data
        self.conductor = conductor
        self.coeffs = coeffs

    @staticmethod
    def _canonical(e: int, vec: list[Fraction]) -> "Cyclotomic":
        while True:
            if not any(vec):
                return Cyclotomic(1, {})
            if e == 1:
                break
            for p in _prime_factors(e):
                sub = _try_descend(e, vec, p)
                if sub is not None:
                    e, vec = e // p, sub
                    break
            else:
                break
        return Cyclotomic(e, {k: c for k, c in enumerate(vec) if c})

    @classmethod
    def from_rational(cls, value) -> "Cyclotomic":
        value = Fraction(value)
        return cls(1, {} if value == 0 else {0: value})

    @classmethod
    def from_exponent_map(cls, e: int, mapping: dict) -> "Cyclotomic":
        """Σ c_k ζ_e^k reduced to canonical form."""
        if e < 1:
            raise ValueError(f"conductor must be ≥ 1, got {e}")
        powers = _zeta_powers(e)
        vec = [_ZERO] * euler_phi(e)
        for k, c in mapping.items():
            c = Fraction(c)
            if not c:
                continue
            for i, b in enumerate(powers[k % e]):
                if b:
                    vec[i] += c * b
        return cls._canonical(e, vec)

    def _lift(self, L: int) -> list[Fraction]:
        """Coordinates of self in the power basis at conductor L."""
        if L == self.conductor:
            vec = [_ZERO] * euler_phi(L)
            for k, c in self.coeffs.items():
                vec[k] = c
            return vec
        step = L // self.conductor
        powers = _zeta_powers(L)
        vec = [_ZERO] * euler_phi(L)
        for k, c in self.coeffs.items():
            for i, b in enumerate(powers[(k * step) % L]):
                if b:
                    vec[i] += c * b
        return vec

    def is_rational(self) -> bool:
        return self.conductor == 1

    def as_rational(self) -> Fraction:
        if self.conductor != 1:
            raise ValueError(f"not a rational value: {self!r}")
        return self.coeffs.get(0, _ZERO)

    def sort_key(self) -> tuple:
        """Deterministic total order on values; the value 1 sorts first."""
        if self.conductor == 1 and self.coeffs.get(0, _ZERO) == 1:
            return (0,)
        items = tuple(
            (k, c.numerator, c.denominator) for k, c in sorted(self.coeffs.items())
        )
        return (1, self.conductor, items)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.conductor == 1 and self.coeffs.get(0, _ZERO) == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        if self.conductor == 1:
            return hash(self.coeffs.get(0, _ZERO))
        return hash((self.conductor, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        if self.conductor == 1:
            return f"Cyclotomic({self.coeffs.get(0, _ZERO)!s})"
        terms = ", ".join(f"{k}: {c!s}" for k, c in sorted(self.coeffs.items()))
        return f"Cyclotomic(ζ{self.conductor}; {{{terms}}})"


def integer_coordinates(values, e: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, vectors): D·v in the power basis at conductor e for each value v.

    e must be a multiple of every value's conductor; D is the least common
    denominator of all the lifted coordinates, so D = 1 for algebraic integers.
    """
    lifted = [v._lift(e) for v in values]
    D = lcm(*(c.denominator for vec in lifted for c in vec))
    return D, tuple(
        tuple(c.numerator * (D // c.denominator) for c in vec) for vec in lifted
    )


def _reduce_mod(coeffs: list[int], e: int) -> tuple[int, ...]:
    """Integer polynomial coeffs (low degree first, at least φ(e) of them)
    reduced mod Φ_e to its φ(e) power-basis coordinates; overwrites coeffs."""
    cp = cyclotomic_polynomial(e)
    n = len(cp) - 1
    # Φ_e is monic of degree n: x^k = x^{k-n}·(x^n − Φ_e) + lower terms
    for k in range(len(coeffs) - 1, n - 1, -1):
        c = coeffs[k]
        if c:
            for i in range(n):
                coeffs[k - n + i] -= c * cp[i]
    return tuple(coeffs[:n])


def multiply_mod(a: tuple[int, ...], b: tuple[int, ...], e: int) -> tuple[int, ...]:
    """Product of two integer power-basis vectors at conductor e, reduced mod Φ_e."""
    n = len(a)
    if n == 1:
        # e = 1 (every Sym(n) table): the loops below give the same product,
        # and skipping them halves the Sym(7) all-triples time
        return (a[0] * b[0],)
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    return _reduce_mod(prod, e)


def conjugate_mod(vec: tuple[int, ...], e: int) -> tuple[int, ...]:
    """Image of an integer power-basis vector at conductor e under ζ ↦ ζ⁻¹,
    reduced mod Φ_e."""
    image = [0] * e
    for k, c in enumerate(vec):
        image[-k % e] += c
    return _reduce_mod(image, e)


def zeta(e: int, k: int = 1) -> Cyclotomic:
    """The root of unity ζ_e^k in canonical form."""
    return Cyclotomic.from_exponent_map(e, {k: 1})

