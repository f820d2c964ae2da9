"""Generalized Bernoulli numbers, computed two independent ways.

``B(n, l)`` denotes the coefficient family defined by

    (z / (e^z - 1))^l  =  sum_{n >= 0}  B(n, l) z^n / n!

for integer order l >= 1.  The classical Bernoulli numbers are the
l = 1 column.

Two routes to the same value live here on purpose:

* :func:`gen_bernoulli_row` evaluates a closed-form double sum of binomial
  products, one degree n at a time.  The ``bernoulli`` command prints it,
  and :func:`~zetaodd.weights.triangular_system`, the paper's pipeline
  kept as the oracle of ``solve_weights``, reads it.
* :func:`series_oracle` builds the defining power series from scratch
  (invert ``(e^z - 1)/z``, then raise to the l-th power) and reads the
  coefficients off.  It shares no intermediate quantities with the
  closed form.

The series is the independent reference the closed form is compared
against, by verify check 3 and the tests, so a transcription slip in
either formula fails there.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "gen_bernoulli",
    "gen_bernoulli_row",
    "gen_bernoulli_poly",
    "series_oracle",
]


def _validate_indices(n: int, l: int) -> None:
    if n < 0:
        raise ValueError(f"degree n must be >= 0, got {n}")
    if l < 1:
        raise ValueError(f"order l must be >= 1, got {l}")


def _row_terms(n: int) -> list[int]:
    """The l-independent integers of row n, for k = 0..n:

        a(n, k) = (2n)!/(n+k)! * sum_j (-1)^j C(k, j) j^(n+k).

    (n+k)! divides (2n)! for every k <= n, so each one is exact.
    """
    common = math.factorial(2 * n)
    terms = []
    for k in range(n + 1):
        # inner alternating power sum; 0**0 == 1 covers the k = 0 term
        inner = sum(
            (-1) ** j * math.comb(k, j) * j ** (n + k) for j in range(k + 1)
        )
        terms.append(common // math.factorial(n + k) * inner)
    return terms


def gen_bernoulli_row(n: int, orders) -> list[Fraction]:
    """[B(n, l) for l in orders] by closed-form double sum,

        B(n, l) = n!/(2n)! * sum_{k=0}^{n} C(l+n, n-k) C(l+k-1, k) a(n, k),

    with a(n, k) the l-independent integers of :func:`_row_terms`, built
    once per call, as are n! and (2n)!: one integer over (2n)! per entry.
    Not memoized; a caller that needs many orders of a degree reads them
    in one call.
    """
    orders = list(orders)
    _validate_indices(n, min(orders, default=1))
    terms = _row_terms(n)
    scale, common = math.factorial(n), math.factorial(2 * n)
    sums = (
        sum(math.comb(l + n, n - k) * math.comb(l + k - 1, k) * a for k, a in enumerate(terms))
        for l in orders
    )
    return [Fraction(scale * acc, common) for acc in sums]


def gen_bernoulli(n: int, l: int) -> Fraction:
    """B(n, l), one entry of :func:`gen_bernoulli_row`."""
    return gen_bernoulli_row(n, (l,))[0]


def gen_bernoulli_poly(n: int, l: int, x: Fraction | int) -> Fraction:
    """Generalized Bernoulli polynomial sum_k C(n, k) B(k, l) x^(n-k)."""
    _validate_indices(n, l)
    xf = Fraction(x)
    return sum(
        (math.comb(n, k) * gen_bernoulli(k, l) * xf ** (n - k) for k in range(n + 1)),
        Fraction(0),
    )


# -- power-series oracle -----------------------------------------------

def _series_mul(a: list[Fraction], b: list[Fraction], n_max: int) -> list[Fraction]:
    out = [Fraction(0)] * (n_max + 1)
    for i in range(n_max + 1):
        ai = a[i]
        if not ai:
            continue
        for j in range(n_max + 1 - i):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def _series_inv(c: list[Fraction], n_max: int) -> list[Fraction]:
    # requires c[0] == 1, which holds for (e^z - 1)/z
    if c[0] != 1:
        raise ValueError("series inversion here assumes unit constant term")
    inv = [Fraction(1)] + [Fraction(0)] * n_max
    for k in range(1, n_max + 1):
        s = Fraction(0)
        for i in range(1, k + 1):
            if c[i]:
                s += c[i] * inv[k - i]
        inv[k] = -s
    return inv


def _series_pow(c: list[Fraction], e: int, n_max: int) -> list[Fraction]:
    result = [Fraction(1)] + [Fraction(0)] * n_max
    base = list(c)
    while e:
        if e & 1:
            result = _series_mul(result, base, n_max)
        e >>= 1
        if e:
            base = _series_mul(base, base, n_max)
    return result


def series_oracle(l: int, max_n: int) -> list[Fraction]:
    """[B(0, l), ..., B(max_n, l)] straight from the defining series.

    Builds (e^z - 1)/z to order max_n, inverts it, raises the inverse to
    the l-th power by binary powering, then scales coefficient n by n!.
    Independent of :func:`gen_bernoulli` in every intermediate step.
    """
    _validate_indices(max_n, l)
    c = [Fraction(1, math.factorial(i + 1)) for i in range(max_n + 1)]
    g = _series_inv(c, max_n)
    h = _series_pow(g, l, max_n)
    return [h[i] * math.factorial(i) for i in range(max_n + 1)]
