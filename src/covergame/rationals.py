"""Parsing and rendering of exact rationals in "p/q" text form.

Weights, cover values, and allocations travel through files and JSON as
strings like "5/2" or "3"; decimal and exponent forms are rejected so no
floating point can leak into the pipeline. ``_all_digits`` is the one
digit rule, for each integer part of a token: a non-empty run of ASCII
digits, so no "+", "_", whitespace or other digits; an integer token may
start with one "-". Each part is read by ``int``, so it may have at most
the interpreter's int-to-str limit of digits (4300 by default). Graph
and allocation files share one reader of their numbered lines. The module
also holds the three constants that the other modules share, and the one
conversion to Fraction, which refuses any number that is not exact.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

_ECHO_LIMIT = 40

# One object each for the values that covers, LP rows and allocations
# build most, so equal entries share it instead of holding a Fraction each.
ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


def _fraction(x: int | Fraction) -> Fraction:
    """x itself when it is a Fraction, so the caller keeps its objects (the
    shared constants among them); else a new Fraction equal to x. Anything
    but an int or another ``numbers.Rational`` raises TypeError: a float, a
    str or a Decimal is not taken for an exact number."""
    if type(x) is Fraction:
        return x
    if not isinstance(x, Rational):
        raise TypeError(f"expected an int or a Fraction, not {type(x).__name__}")
    return Fraction(x)


def _echo(token: str | int | Fraction) -> str:
    """A token as error messages quote it: a bad text token by its repr, a
    parsed number by its digits, cut to the first _ECHO_LIMIT characters
    and then marked with "…"."""
    quote = repr
    if not isinstance(token, str):
        token, quote = format_rational(Fraction(token)), str
    if len(token) > _ECHO_LIMIT:
        return quote(token[:_ECHO_LIMIT]) + "…"
    return quote(token)


def _all_digits(token: str) -> bool:
    """True when the token is a non-empty run of ASCII digits."""
    return token.isascii() and token.isdigit()


def _parse_integer(token: str) -> int:
    """Parse an integer token; raises ValueError on anything else."""
    if not _all_digits(token.removeprefix("-")):
        raise ValueError(f"not an integer literal: {_echo(token)}")
    return int(token)


def _significant_lines(text: str) -> list[tuple[int, str]]:
    """The stripped lines of a text file that are neither blank nor "#"
    comments, with their 1-based numbers. Lines end at LF, CRLF or CR only,
    as ``Path.read_text`` reads them, so VT, FF, U+2028 and the other breaks
    of ``str.splitlines`` stay whitespace in their line. One leading
    byte-order mark (U+FEFF) is dropped; one anywhere else stays in its line."""
    lines = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    numbered = ((line_no, raw.strip()) for line_no, raw in enumerate(lines, start=1))
    return [(line_no, line) for line_no, line in numbered if line and not line.startswith("#")]


def parse_rational(token: str) -> Fraction:
    """Parse "p" or "p/q" (q > 0) into a Fraction.

    Raises ValueError on anything else, including decimals and "p/0".
    """
    p, slash, q = token.partition("/")
    if not (_all_digits(p.removeprefix("-")) and (not slash or _all_digits(q))):
        raise ValueError(f"not a rational literal: {_echo(token)}")
    numerator, denominator = int(p), int(q) if slash else 1
    if denominator == 0:
        raise ValueError(f"zero denominator: {_echo(token)}")
    return Fraction(numerator, denominator) if slash else Fraction(numerator)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q", or as a bare integer when q = 1.

    A part longer than the int-to-str limit is rendered exactly through
    ``decimal``, which has no such limit.
    """
    p, q = value.numerator, value.denominator
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError:
        from decimal import Decimal

        return str(Decimal(p)) if q == 1 else f"{Decimal(p)}/{Decimal(q)}"
