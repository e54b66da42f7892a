"""Report rendering: canonical JSON (byte-deterministic) and plain text.

The structured format is a tree of named values with fixed key order and no
timestamps, so identical invocations serialize to identical bytes; it is the
format golden-file tests pin down.  The text format is for reading.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .cyclotomic import Cyclotomic
from .elements import Permutation, PrimeFieldMatrix
from .qsymbolic import QPolynomial, QRationalFunction


def fraction_text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else str(value)


def cyclo_text(value: Cyclotomic) -> str:
    """Readable form; z{e} denotes a primitive e-th root of unity."""
    if value.is_rational():
        return fraction_text(value.as_rational())
    e = value.conductor
    parts = []
    for k in sorted(value.coeffs):
        coeff = value.coeffs[k]
        base = f"z{e}" if k == 1 else f"z{e}^{k}"
        if k == 0:
            term = fraction_text(coeff)
        elif coeff == 1:
            term = base
        elif coeff == -1:
            term = f"-{base}"
        else:
            term = f"{fraction_text(coeff)}*{base}"
        parts.append(term)
    text = parts[0]
    for term in parts[1:]:
        text += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return text


def element_text(element) -> str:
    if isinstance(element, Permutation):
        return element.cycle_string()
    if isinstance(element, PrimeFieldMatrix):
        rows = "; ".join(
            " ".join(str(v) for v in row) for row in element.entries
        )
        return f"[{rows}] mod {element.p}"
    return str(element)


def jsonable(value):
    """Convert report values to JSON-serializable structures, deterministically."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else str(value)
    if isinstance(value, Cyclotomic):
        if value.is_rational():
            return jsonable(value.as_rational())
        return {
            "conductor": value.conductor,
            "terms": [
                [k, value.coeffs[k].numerator, value.coeffs[k].denominator]
                for k in sorted(value.coeffs)
            ],
        }
    if isinstance(value, (QPolynomial, QRationalFunction)):
        return str(value)
    if isinstance(value, (Permutation, PrimeFieldMatrix)):
        return element_text(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"


def _scalar_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "-"
    if isinstance(value, Fraction):
        return fraction_text(value)
    if isinstance(value, Cyclotomic):
        return cyclo_text(value)
    if isinstance(value, (Permutation, PrimeFieldMatrix)):
        return element_text(value)
    return str(value)


def _is_scalar(value) -> bool:
    return not isinstance(value, (dict, list, tuple))


def render_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        items = ((f"{key}:", value) for key, value in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = (("-", value) for value in obj)
    else:
        return f"{pad}{_scalar_text(obj)}"
    lines = []
    for label, value in items:
        if _is_scalar(value):
            lines.append(f"{pad}{label} {_scalar_text(value)}")
        elif isinstance(value, (list, tuple)) and all(_is_scalar(v) for v in value):
            inner = ", ".join(_scalar_text(v) for v in value)
            lines.append(f"{pad}{label} [{inner}]")
        elif isinstance(value, dict) and not value:
            lines.append(f"{pad}{label} {{}}")
        else:
            lines.append(f"{pad}{label}")
            lines.append(render_text(value, indent + 1))
    return "\n".join(lines)
