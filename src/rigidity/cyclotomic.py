"""Exact arithmetic in cyclotomic fields.

A value is stored as rational coordinates over the power basis
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

Only the arithmetic needed by character tables is provided: ring operations,
scaling and division by rationals, and the conjugation automorphism ζ ↦ ζ⁻¹.
For sums over a whole table, `integer_coordinates` lifts values to integer
power-basis vectors at one fixed conductor with one common denominator, and
`multiply_mod` multiplies such vectors modulo Φ_e without minimizing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

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

    def _binary(self, other) -> "tuple[int, list[Fraction], list[Fraction]] | None":
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        elif not isinstance(other, Cyclotomic):
            return None
        L = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        return L, self._lift(L), other._lift(L)

    def __add__(self, other):
        packed = self._binary(other)
        if packed is None:
            return NotImplemented
        L, a, b = packed
        return Cyclotomic._canonical(L, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        packed = self._binary(other)
        if packed is None:
            return NotImplemented
        L, a, b = packed
        return Cyclotomic._canonical(L, [x - y for x, y in zip(a, b)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                return Cyclotomic(1, {})
            return Cyclotomic(self.conductor, {k: c * other for k, c in self.coeffs.items()})
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        e1, e2 = self.conductor, other.conductor
        L = e1 * e2 // gcd(e1, e2)
        s1, s2 = L // e1, L // e2
        exponent_map: dict[int, Fraction] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = (k1 * s1 + k2 * s2) % L
                exponent_map[k] = exponent_map.get(k, _ZERO) + c1 * c2
        return Cyclotomic.from_exponent_map(L, exponent_map)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                raise ZeroDivisionError("division of a cyclotomic by zero")
            return self * (1 / other)
        return NotImplemented

    def conjugate(self) -> "Cyclotomic":
        """Image under the automorphism ζ ↦ ζ⁻¹ (complex conjugation)."""
        e = self.conductor
        return Cyclotomic.from_exponent_map(e, {(-k) % e: c for k, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return self.conductor == 1

    def as_rational(self) -> Fraction:
        if self.conductor != 1:
            raise ValueError(f"not a rational value: {self!r}")
        return self.coeffs.get(0, _ZERO)

    def is_integral(self) -> bool:
        """True when the value is an algebraic integer."""
        return all(c.denominator == 1 for c in self.coeffs.values())

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
    cp = cyclotomic_polynomial(e)
    # Φ_e is monic of degree n: x^k = x^{k-n}·(x^n − Φ_e) + lower terms
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k]
        if c:
            for i in range(n):
                prod[k - n + i] -= c * cp[i]
    return tuple(prod[:n])


def zeta(e: int, k: int = 1) -> Cyclotomic:
    """The root of unity ζ_e^k in canonical form."""
    return Cyclotomic.from_exponent_map(e, {k: 1})


ZERO = Cyclotomic(1, {})
ONE = Cyclotomic(1, {0: Fraction(1)})
