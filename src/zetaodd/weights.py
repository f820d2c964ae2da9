"""Rational weight systems for collapsing sums of shifted power kernels.

For each degree m >= 1 the weights w_1, ..., w_m are the unique exact
solution of a unit-upper-triangular linear system whose matrix entries
come from the generalized Bernoulli family:

    b(j, l) = (-1)^(l-j) B(l-j, l) / (l-j)!        for 1 <= j <= l,

with right-hand side (0, ..., 0, -s_m) and parity-dependent constant

    s_m = (-1)^((m-1)/2) (m-1)!    for odd m,
    s_m = (-1)^((m+2)/2) (m-1)!    for even m.

Row j of the system reads  sum_{l=j}^{m} b(j, l) w_l = rhs_j, and
b(l, l) = 1 makes back-substitution exact and division-free apart from
Fraction arithmetic.

That is the paper's route, and it stays here as the oracle:
:func:`triangular_system` (m Bernoulli rows) and :func:`back_substitute`.
:func:`solve_weights` returns the integer closed form instead,

    w_l = (-1)^(m//2 + l) (l-1)! S(m, l),

with S the Stirling numbers of the second kind (the Worpitzky numbers,
OEIS A028246; Graham, Knuth and Patashnik, *Concrete Mathematics*,
section 6.1), from one O(m^2) integer recurrence.  The two agree for
every m <= 101, which is observed, not proved; verify check 11 compares
them at each of those degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bernoulli import gen_bernoulli_row

__all__ = [
    "coeff_b",
    "d_coefficients",
    "s_constant",
    "triangular_system",
    "WeightVector",
    "back_substitute",
    "solve_weights",
]


def _diagonal(k: int, orders) -> list[Fraction]:
    """[b(l - k, l) for l in orders], from one read of Bernoulli row k."""
    sign = -1 if k & 1 else 1
    scale = math.factorial(k)
    return [sign * b / scale for b in gen_bernoulli_row(k, orders)]


def coeff_b(j: int, l: int) -> Fraction:
    """Matrix entry b(j, l); defined for 1 <= j <= l."""
    if not 1 <= j <= l:
        raise ValueError(f"coeff_b requires 1 <= j <= l, got j={j}, l={l}")
    return _diagonal(l - j, (l,))[0]


def d_coefficients(l: int) -> list[Fraction]:
    """Descending-power coefficient row [b(l, l), b(l-1, l), ..., b(1, l)].

    First and last entries are always 1; for l <= 7 the row times
    (l-1)! is a classical pattern of positive integers.
    """
    if l < 1:
        raise ValueError(f"order l must be >= 1, got {l}")
    return [coeff_b(j, l) for j in range(l, 0, -1)]


def s_constant(m: int) -> Fraction:
    """Alternating factorial constant on the right-hand side."""
    if m < 1:
        raise ValueError(f"degree m must be >= 1, got {m}")
    if m % 2 == 1:
        sign = -1 if ((m - 1) // 2) & 1 else 1
    else:
        sign = -1 if ((m + 2) // 2) & 1 else 1
    return Fraction(sign * math.factorial(m - 1))


def triangular_system(m: int) -> dict[tuple[int, int], Fraction]:
    """Upper-triangular system matrix for degree m: {(j, l): b(j, l)}.

    Built diagonal by diagonal: every entry with l - j = k comes from
    one read of the Bernoulli row B(k, .), so a degree-m system builds
    m rows.
    """
    if m < 1:
        raise ValueError(f"degree m must be >= 1, got {m}")
    system = {}
    for k in range(m):
        orders = range(k + 1, m + 1)
        system.update(((l - k, l), b) for l, b in zip(orders, _diagonal(k, orders)))
    return system


@dataclass(frozen=True)
class WeightVector:
    """Solved weights for degree m; ``weights[i]`` is w_{i+1}."""

    m: int
    s_m: Fraction
    weights: tuple[Fraction, ...]

    def weight(self, l: int) -> Fraction:
        if not 1 <= l <= self.m:
            raise ValueError(f"weight index must be in 1..{self.m}, got {l}")
        return self.weights[l - 1]


def back_substitute(system: dict[tuple[int, int], Fraction], m: int) -> WeightVector:
    """Weights of degree m from ``system``, :func:`triangular_system` of
    degree m or of any larger one: b(j, l) does not depend on m, so the
    degree-m system is the leading block of every larger system.

    The diagonal is identically 1, so w_m = rhs_m = -s_m and each
    earlier weight is rhs_j minus the already-known tail of its row.
    """
    s_m = s_constant(m)
    w: list[Fraction] = [Fraction(0)] * (m + 1)  # 1-based
    w[m] = -s_m
    for j in range(m - 1, 0, -1):
        tail = sum(
            (system[(j, l)] * w[l] for l in range(j + 1, m + 1)), Fraction(0)
        )
        w[j] = -tail
    return WeightVector(m, s_m, tuple(w[1:]))


def solve_weights(m: int) -> WeightVector:
    """Weights of degree m from the Stirling closed form; not memoized.

    The row S(m, .) comes from S(n, l) = l S(n-1, l) + S(n-1, l-1) and
    (l-1)! from one running product, all in integers.  The paper's
    solve, ``back_substitute(triangular_system(m), m)``, is its oracle.
    """
    if m < 1:
        raise ValueError(f"degree m must be >= 1, got {m}")
    row = [1]  # S(0, .)
    for n in range(1, m + 1):
        row = [0] + [l * a + b for l, a, b in zip(range(1, n + 1), row[1:] + [0], row)]
    weights = []
    factorial = 1
    sign = -1 if (m // 2 + 1) & 1 else 1
    for l in range(1, m + 1):
        weights.append(Fraction(sign * factorial * row[l]))
        factorial *= l
        sign = -sign
    return WeightVector(m, s_constant(m), tuple(weights))
