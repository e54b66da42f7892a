"""Exact univariate polynomial and rational-function arithmetic in q.

Hosts a small cited ledger of class data for the Chevalley groups G2(q),
q a power of 5, and checks its counting identities symbolically: the sum
of class-algebra constants over centralizer orders must equal 1 for each
of the two embedded triples, an identity that holds for all q at once.

Ledger values are cited from the classical character-table literature for
G2(q), not computed here; the reporting layer must tag every ledger-derived
figure as cited rather than computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .conjugacy import conjugacy_classes
from .errors import PolynomialDivisionError
from .groups import FiniteGroup


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational, got {type(value).__name__}")


class QPolynomial:
    """Polynomial over Q in the indeterminate q; zero coefficients dropped."""

    __slots__ = ("coeffs",)

    def __init__(self, coefficients=None):
        coeffs: dict[int, Fraction] = {}
        if coefficients:
            for degree, value in dict(coefficients).items():
                if not isinstance(degree, int) or degree < 0:
                    raise ValueError(f"bad exponent {degree!r}")
                value = _as_fraction(value)
                if value != 0:
                    coeffs[degree] = value
        self.coeffs = coeffs

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls({0: 1})

    @classmethod
    def monomial(cls, coefficient, degree: int) -> "QPolynomial":
        return cls({degree: _as_fraction(coefficient)})

    @property
    def degree(self) -> int:
        """Largest exponent; -1 for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[self.degree]

    def _binary(self, other, sign: int) -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        merged = dict(self.coeffs)
        for degree, value in other.coeffs.items():
            merged[degree] = merged.get(degree, Fraction(0)) + sign * value
        return QPolynomial(merged)

    def __add__(self, other) -> "QPolynomial":
        return self._binary(other, 1)

    def __sub__(self, other) -> "QPolynomial":
        return self._binary(other, -1)

    def __mul__(self, other) -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        out: dict[int, Fraction] = {}
        for d1, v1 in self.coeffs.items():
            for d2, v2 in other.coeffs.items():
                out[d1 + d2] = out.get(d1 + d2, Fraction(0)) + v1 * v2
        return QPolynomial(out)

    def scale(self, factor) -> "QPolynomial":
        factor = _as_fraction(factor)
        return QPolynomial({d: v * factor for d, v in self.coeffs.items()})

    def evaluate(self, q) -> Fraction:
        q = _as_fraction(q)
        total = Fraction(0)
        for degree, value in self.coeffs.items():
            total += value * q**degree
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.coeffs.items())))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for degree in sorted(self.coeffs, reverse=True):
            value = self.coeffs[degree]
            if degree == 0:
                term = str(value)
            else:
                var = "q" if degree == 1 else f"q^{degree}"
                if value == 1:
                    term = var
                elif value == -1:
                    term = f"-{var}"
                else:
                    term = f"{value}*{var}"
            parts.append(term)
        text = parts[0]
        for term in parts[1:]:
            text += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return text

    def __repr__(self) -> str:
        return f"QPolynomial({self})"


def _poly_divmod(a: QPolynomial, b: QPolynomial) -> tuple[QPolynomial, QPolynomial]:
    if b.is_zero():
        raise PolynomialDivisionError("polynomial division by zero")
    quotient = QPolynomial.zero()
    remainder = a
    db, lb = b.degree, b.leading_coefficient()
    while not remainder.is_zero() and remainder.degree >= db:
        shift = remainder.degree - db
        factor = remainder.leading_coefficient() / lb
        term = QPolynomial.monomial(factor, shift)
        quotient = quotient + term
        remainder = remainder - term * b
    return quotient, remainder


def poly_gcd(a: QPolynomial, b: QPolynomial) -> QPolynomial:
    """Monic greatest common divisor in Q[q]."""
    while not b.is_zero():
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a.is_zero():
        return a
    return a.scale(1 / a.leading_coefficient())


class QRationalFunction:
    """Quotient of QPolynomials in lowest terms with monic denominator."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: QPolynomial, denominator: QPolynomial):
        if denominator.is_zero():
            raise PolynomialDivisionError("zero denominator")
        if numerator.is_zero():
            numerator, denominator = QPolynomial.zero(), QPolynomial.one()
        else:
            g = poly_gcd(numerator, denominator)
            numerator, _ = _poly_divmod(numerator, g)
            denominator, _ = _poly_divmod(denominator, g)
            lc = denominator.leading_coefficient()
            numerator = numerator.scale(1 / lc)
            denominator = denominator.scale(1 / lc)
        self.numerator = numerator
        self.denominator = denominator

    @classmethod
    def zero(cls) -> "QRationalFunction":
        return cls(QPolynomial.zero(), QPolynomial.one())

    def is_one(self) -> bool:
        return self.numerator == self.denominator

    def __add__(self, other: "QRationalFunction") -> "QRationalFunction":
        return QRationalFunction(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, QRationalFunction):
            return NotImplemented
        return (
            self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    def __hash__(self) -> int:
        return hash((self.numerator, self.denominator))

    def __str__(self) -> str:
        if self.denominator == QPolynomial.one():
            return str(self.numerator)
        return f"({self.numerator}) / ({self.denominator})"

    def __repr__(self) -> str:
        return f"QRationalFunction({self})"


@dataclass(frozen=True)
class LedgerEntry:
    """One unipotent class: its class-algebra constant and centralizer order."""

    label: str
    a_value: QPolynomial
    centralizer_order: QPolynomial

    def __post_init__(self):
        if self.centralizer_order.is_zero():
            raise ValueError(f"entry {self.label}: zero centralizer order")


@dataclass(frozen=True)
class Ledger:
    """Three cited entries, labels u3, u4, u5 in order, plus the citation."""

    name: str
    entries: tuple[LedgerEntry, ...]
    citation: str

    def __post_init__(self):
        labels = tuple(entry.label for entry in self.entries)
        if labels != ("u3", "u4", "u5"):
            raise ValueError(f"ledger {self.name}: labels {labels} not (u3, u4, u5)")


_Q4 = QPolynomial.monomial(1, 4)

CITATION_LEDGER = (
    "class-algebra constants and unipotent centralizer orders in G2(q), "
    "q = 5^f, from the generic character table of G2(q) (Chang-Ree, 1974)"
)

# first choice of order-3 class against the three rational unipotent classes
LEDGER_ONE = Ledger(
    name="triple-1",
    entries=(
        LedgerEntry("u3", _Q4, _Q4.scale(6)),
        LedgerEntry("u4", _Q4, _Q4.scale(3)),
        LedgerEntry("u5", _Q4, _Q4.scale(2)),
    ),
    citation=CITATION_LEDGER,
)

# second choice of order-3 class; the u4 constant vanishes
LEDGER_TWO = Ledger(
    name="triple-2",
    entries=(
        LedgerEntry("u3", _Q4.scale(3), _Q4.scale(6)),
        LedgerEntry("u4", QPolynomial.zero(), _Q4.scale(3)),
        LedgerEntry("u5", _Q4, _Q4.scale(2)),
    ),
    citation=CITATION_LEDGER,
)


@dataclass(frozen=True)
class DimensionDatum:
    """Dimension of one conjugacy-class variety inside a 14-dimensional group."""

    label: str
    class_dimension: int

    def __post_init__(self):
        if not 0 <= self.class_dimension <= 14:
            raise ValueError(f"class dimension {self.class_dimension} outside 0..14")


CITATION_DIMENSIONS = (
    "class dimensions 8, 10, 10 derived from centralizer types A1.A1~, A1.T1, "
    "U4.Sym3 in G2 over an algebraically closed field of characteristic 5"
)

DIMENSION_DATA = (
    DimensionDatum("order-2", 8),
    DimensionDatum("order-3", 10),
    DimensionDatum("order-5", 10),
)


def normalized_solution_count(entries) -> QRationalFunction:
    """Sum of a_value / centralizer_order; equals 1 exactly when the union of
    solution classes has the same mass as the ambient group."""
    entries = tuple(entries)
    if not entries:
        raise ValueError("need at least one ledger entry")
    total = QRationalFunction.zero()
    for entry in entries:
        total = total + QRationalFunction(entry.a_value, entry.centralizer_order)
    return total


def orbit_mass(stabilizer_orders) -> Fraction:
    """Sum of 1/r over a multiset of orbit stabilizer orders."""
    orders = tuple(stabilizer_orders)
    if not orders:
        raise ValueError("need at least one stabilizer order")
    total = Fraction(0)
    for r in orders:
        if r <= 0:
            raise ValueError(f"stabilizer order {r} not positive")
        total += Fraction(1, r)
    return total


def lang_splitting_data(H: FiniteGroup) -> tuple[int, ...]:
    """Centralizer orders of the class representatives of H, descending.

    When a single geometric class splits into rational classes, the split
    pieces carry centralizer orders |C_H(h)| * (a common factor), with H the
    component group of the geometric centralizer; this extracts the H part.
    """
    table = conjugacy_classes(H)
    orders = [cls.centralizer_order for cls in table.classes]
    return tuple(sorted(orders, reverse=True))


def dimension_criterion(class_dims, dim_G: int) -> tuple[int, bool]:
    """(sum of class dimensions, whether the sum reaches 2 * dim_G)."""
    dims = tuple(class_dims)
    for d in dims:
        if d < 0:
            raise ValueError(f"negative class dimension {d}")
    total = sum(dims)
    return (total, total >= 2 * dim_G)
