"""Parsing and rendering of exact rationals in "p/q" text form.

Weights, cover values, and allocations travel through files and JSON as
strings like "5/2" or "3"; decimal and exponent forms are rejected so no
floating point can leak into the pipeline. Tokens take ASCII digits and
an optional leading "-" only: no "+", "_", whitespace or other digits.
"""

from __future__ import annotations

import re
from fractions import Fraction

_INTEGER_RE = re.compile(r"-?[0-9]+")
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _parse_integer(token: str) -> int:
    """Parse an integer token; raises ValueError on anything else."""
    if _INTEGER_RE.fullmatch(token) is None:
        raise ValueError(f"not an integer literal: {token!r}")
    return int(token)


def parse_rational(token: str) -> Fraction:
    """Parse "p" or "p/q" (q > 0) into a Fraction.

    Raises ValueError on anything else, including decimals and "p/0".
    """
    match = _RATIONAL_RE.fullmatch(token)
    if match is None:
        raise ValueError(f"not a rational literal: {token!r}")
    numerator = int(match.group(1))
    denominator = int(match.group(2)) if match.group(2) else 1
    if denominator == 0:
        raise ValueError(f"zero denominator: {token!r}")
    return Fraction(numerator, denominator)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q", or as a bare integer when q = 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
