"""Canonical "p/q" text form for exact rationals.

Every rational that crosses a file or JSON boundary is written as a
string: "3", "-2/7".  The denominator is omitted when it is 1, so
formatting then parsing is the identity on reduced fractions, and two
equal fractions always serialise to the same bytes.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BoundExceeded, MalformedDocument


def format_fraction(x: Fraction | int) -> str:
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError as exc:  # more digits than the interpreter converts
        raise BoundExceeded(f"cannot print a rational: {exc}") from exc


def parse_fraction(text: str) -> Fraction:
    if not isinstance(text, str):
        raise MalformedDocument(f"expected a rational string, got {text!r}")
    if "e" in text or "E" in text:  # Fraction's exponent notation, whose parse time grows with the exponent
        raise MalformedDocument(f"bad rational literal {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedDocument(f"bad rational literal {text!r}") from exc
