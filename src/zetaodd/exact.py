"""Exact arithmetic primitives shared by every other module.

The single exact scalar type used throughout the package is
:class:`fractions.Fraction`: arbitrary precision, always reduced to
lowest terms, denominator always positive.  Nothing downstream is
allowed to round until a value is explicitly handed to mpmath for
evaluation.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "ExactRational",
    "binomial",
    "factorial",
    "format_rational",
]

ExactRational = Fraction


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b) for a >= 0.

    Out-of-range lower index is a value, not an error: C(a, b) = 0
    whenever b < 0 or b > a.  Several alternating sums below rely on
    that convention to keep their index bookkeeping trivial.
    """
    if a < 0:
        raise ValueError(f"binomial: upper index must be >= 0, got {a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError(f"factorial: argument must be >= 0, got {n}")
    return math.factorial(n)


def format_rational(x: Fraction | int) -> str:
    """Canonical text form: ``num/den`` in lowest terms, or ``num`` alone
    when the denominator is 1.  The sign, if any, sits on the numerator;
    ``Fraction(text)`` reads the text back exactly."""
    return str(Fraction(x))
