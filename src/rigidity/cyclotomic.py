"""Exact values in cyclotomic fields, and integer arithmetic on their coordinates.

A `Cyclotomic` value is stored as rational coordinates over the power basis
{ζ_e^k : 0 ≤ k < φ(e)} modulo the e-th cyclotomic polynomial, with e the
minimal conductor admitting the value.  The representation is unique, so
equality is structural and hashing is safe.  Since the power basis of ζ_e is
an integral basis of the ring of integers of Q(ζ_e), a value is an algebraic
integer exactly when every stored coordinate has denominator 1.

Conductor minimization reads the power-basis coordinates first.  A value
whose coordinates past the first are all 0 is rational.  When p² | e,
Φ_e(x) = Φ_{e/p}(x^p) and Q(ζ_e) = ⊕_{i<p} ζ_e^i·Q(ζ_{e/p}), so the value lies
in Q(ζ_{e/p}) exactly when its coordinates off the multiples of p vanish, and
its coordinates there are every p-th one.  When p divides e exactly once,
the relative trace to Q(ζ_m), m = e/p, decides it (`_descend_by_trace`): the
value lies there exactly when its trace over p − 1, read at m and lifted back
by ζ_m = ζ_e^p, is the value again, and those coordinates at m are then its
own.  Neither descent solves a linear system; both steps of the trace are the
one reduction mod Φ_e.  For e = 2m, m odd, Q(ζ_e) = Q(ζ_m) and the trace for
p = 2 is the identity, so every value descends from such an e and stored
conductors are never ≡ 2 mod 4.  The minimal conductor and the coordinates
over it are unique, so the order of the descents does not change the result.

`Cyclotomic` is a value type: it is built (`from_rational`,
`from_exponent_map`, `zeta`), compared, hashed, ordered and printed, and
has no arithmetic operators.  All arithmetic runs on integer vectors at one
fixed conductor: `integer_coordinates` lifts values to integer power-basis
vectors with one common denominator, `dot_mod` sums products of paired
vectors and `conjugate_mod` applies ζ ↦ ζ⁻¹ (complex conjugation), both
without minimizing.

Every reduction mod Φ_e is one step, `_power_basis`: Σ c·ζ_e^k is summed from
the cached power-basis coordinates of each ζ_e^k (`_zeta_powers`), for any
integer k.  Building a value from an exponent map, lifting it to a multiple of
its conductor, and the results of `dot_mod` and `conjugate_mod` all go
through it.
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


def _power_basis(terms, e: int) -> tuple:
    """Power-basis coordinates at e of Σ c·ζ_e^k over the (k, c) pairs in terms:
    k is any integer, taken mod e, and c an int or a Fraction.  Each ζ_e^k is
    read off `_zeta_powers(e)`, so this is the one reduction mod Φ_e."""
    powers = _zeta_powers(e)
    vec = [0] * euler_phi(e)
    for k, c in terms:
        if c:
            for i, b in enumerate(powers[k % e]):
                if b:
                    vec[i] += c * b
    return tuple(vec)


def _descend_by_trace(e: int, vec: tuple, p: int) -> tuple | None:
    """Coordinates at m = e/p of the value with coordinates vec at e, or None
    when it does not lie in Q(ζ_m); p must divide e exactly once.

    ζ_e^k = ζ_p^{k·s}·ζ_m^{k·t} with s = m⁻¹ mod p and t = p⁻¹ mod m, and the
    trace from Q(ζ_e) to Q(ζ_m) sends ζ_p^a to p − 1 when p | a and to −1
    otherwise, so w = Tr(v)/(p − 1) is v itself when v lies in Q(ζ_m).  The
    value lies there exactly when w, lifted back by ζ_m = ζ_e^p, is v."""
    m = e // p
    t, off = pow(p, -1, m), Fraction(-1, p - 1)
    w = _power_basis(((k * t, c if k % p == 0 else c * off) for k, c in enumerate(vec)), m)
    return w if _power_basis(((p * j, c) for j, c in enumerate(w)), e) == vec else None


class Cyclotomic:
    """An element of a cyclotomic field in canonical minimal-conductor form."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: dict):
        # trusted constructor: callers must pass canonical data
        self.conductor = conductor
        self.coeffs = coeffs

    @staticmethod
    def _canonical(e: int, vec: tuple[Fraction, ...]) -> "Cyclotomic":
        while any(vec[1:]):
            for p in _prime_factors(e):
                if (e // p) % p:
                    sub = _descend_by_trace(e, vec, p)
                    if sub is None:
                        continue
                elif any(c for i, c in enumerate(vec) if i % p):
                    continue
                else:
                    sub = vec[::p]
                e, vec = e // p, sub
                break
            else:
                return Cyclotomic(e, {k: c for k, c in enumerate(vec) if c})
        return Cyclotomic.from_rational(vec[0])

    @classmethod
    def from_rational(cls, value) -> "Cyclotomic":
        value = Fraction(value)
        return cls(1, {} if value == 0 else {0: value})

    @classmethod
    def from_exponent_map(cls, e: int, mapping: dict) -> "Cyclotomic":
        """Σ c_k ζ_e^k reduced to canonical form."""
        if e < 1:
            raise ValueError(f"conductor must be ≥ 1, got {e}")
        terms = ((k, Fraction(c)) for k, c in mapping.items())
        return cls._canonical(e, _power_basis(terms, e))

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

    e must be a multiple of every value's conductor (ValueError otherwise).  D
    is the least common denominator of the values' own coordinates (1 for
    algebraic integers); both power bases are integral bases, so D·v has
    integer coordinates at e exactly when it has them at v's conductor, and
    each value is lifted from the integers D·c.
    """
    for v in values:
        if e % v.conductor:
            raise ValueError(f"conductor {e} is not a multiple of {v.conductor}")
    D = lcm(*(c.denominator for v in values for c in v.coeffs.values()))
    return D, tuple(
        _power_basis(
            ((k * (e // v.conductor), c.numerator * (D // c.denominator))
             for k, c in v.coeffs.items()),
            e,
        )
        for v in values
    )


def dot_mod(xs, ys, e: int) -> tuple[int, ...]:
    """Σ x_i·y_i of paired integer power-basis vectors at conductor e; reduction
    mod Φ_e is a ring map, so the plain products are added and reduced once."""
    if e <= 2:
        # φ(e) = 1 (every Sym(n) table): the vectors are integers
        total = 0
        for x, y in zip(xs, ys):
            total += x[0] * y[0]
        return (total,)
    total = [0] * (2 * euler_phi(e) - 1)
    for x, y in zip(xs, ys):
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y, i):
                    if b:
                        total[j] += a * b
    return _power_basis(enumerate(total), e)


def conjugate_mod(vec: tuple[int, ...], e: int) -> tuple[int, ...]:
    """Image of an integer power-basis vector at conductor e under ζ ↦ ζ⁻¹."""
    if e <= 2:
        # ζ = ±1 is its own inverse
        return vec
    return _power_basis(((-k, c) for k, c in enumerate(vec)), e)


def zeta(e: int, k: int = 1) -> Cyclotomic:
    """The root of unity ζ_e^k in canonical form."""
    return Cyclotomic.from_exponent_map(e, {k: 1})

