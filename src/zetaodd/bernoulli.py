"""Generalized Bernoulli numbers, computed two independent ways.

``B(n, l)`` denotes the coefficient family defined by

    (z / (e^z - 1))^l  =  sum_{n >= 0}  B(n, l) z^n / n!

for integer order l >= 1.  The classical Bernoulli numbers are the
l = 1 column.

Two routes to the same value live here on purpose:

* :func:`gen_bernoulli` evaluates a closed-form double sum of binomial
  products.  It is the production path.
* :func:`series_oracle` builds the defining power series from scratch
  (invert ``(e^z - 1)/z``, then raise to the l-th power) and reads the
  coefficients off.  It shares no intermediate quantities with the
  closed form.

:class:`GenBernoulliTable` memoizes values and refuses to store any
entry on which the two routes disagree, so a transcription slip in
either formula cannot propagate silently.  The table lives in process
memory only; nothing is read back from disk, so every entry the weight
and tau pipelines see has passed that check in the same process.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exact import ExactRational, binomial, factorial, format_rational

__all__ = [
    "gen_bernoulli",
    "gen_bernoulli_poly",
    "series_oracle",
    "GenBernoulliTable",
    "TableConsistencyError",
    "default_table",
]


class TableConsistencyError(ArithmeticError):
    """Closed form and series construction disagree on an entry."""


def _validate_indices(n: int, l: int) -> None:
    if n < 0:
        raise ValueError(f"degree n must be >= 0, got {n}")
    if l < 1:
        raise ValueError(f"order l must be >= 1, got {l}")


@lru_cache(maxsize=None)
def gen_bernoulli(n: int, l: int) -> ExactRational:
    """B(n, l) by closed-form double sum.

    The sum is accumulated as a single integer over the common
    denominator (2n)!; this is exact because (n+k)! divides (2n)! for
    every k <= n, and it avoids one Fraction normalization per term.
    """
    _validate_indices(n, l)
    common = factorial(2 * n)
    acc = 0
    for k in range(n + 1):
        # inner alternating power sum; 0**0 == 1 covers the k = 0 term
        inner = sum(
            (-1) ** j * binomial(k, j) * j ** (n + k) for j in range(k + 1)
        )
        acc += (
            binomial(l + n, n - k)
            * binomial(l + k - 1, k)
            * (common // factorial(n + k))
            * inner
        )
    return Fraction(acc * factorial(n), common)


def gen_bernoulli_poly(n: int, l: int, x: ExactRational | int) -> ExactRational:
    """Generalized Bernoulli polynomial sum_k C(n, k) B(k, l) x^(n-k)."""
    _validate_indices(n, l)
    xf = Fraction(x)
    table = default_table()
    return sum(
        (binomial(n, k) * table.value(k, l) * xf ** (n - k) for k in range(n + 1)),
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


def series_oracle(l: int, max_n: int) -> list[ExactRational]:
    """[B(0, l), ..., B(max_n, l)] straight from the defining series.

    Builds (e^z - 1)/z to order max_n, inverts it, raises the inverse to
    the l-th power by binary powering, then scales coefficient n by n!.
    Independent of :func:`gen_bernoulli` in every intermediate step.
    """
    _validate_indices(max_n, l)
    c = [Fraction(1, factorial(i + 1)) for i in range(max_n + 1)]
    g = _series_inv(c, max_n)
    h = _series_pow(g, l, max_n)
    return [h[i] * factorial(i) for i in range(max_n + 1)]


# -- verified memo table -----------------------------------------------

class GenBernoulliTable:
    """Memoized B(n, l) store where every entry is double-checked.

    Growth happens column by column (fixed l, n ascending).  When a
    column is extended, the series oracle is rebuilt for the whole
    column and each closed-form value is compared against it before
    being stored; disagreement raises :class:`TableConsistencyError`.
    Growth is idempotent, and already-stored entries are never
    recomputed.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int], Fraction] = {}
        self._column_hi: dict[int, int] = {}

    @property
    def max_order(self) -> int:
        """Largest order l present, 0 when empty."""
        return max(self._column_hi, default=0)

    def column_extent(self, l: int) -> int:
        """Largest verified degree in column l, -1 when absent."""
        return self._column_hi.get(l, -1)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._entries

    def items(self):
        return self._entries.items()

    def value(self, n: int, l: int) -> ExactRational:
        _validate_indices(n, l)
        if (n, l) not in self._entries:
            self._grow_column(l, n)
        return self._entries[(n, l)]

    def ensure(self, max_n: int, max_l: int) -> None:
        """Populate the rectangle n <= max_n, 1 <= l <= max_l."""
        for l in range(1, max_l + 1):
            self._grow_column(l, max_n)

    def _grow_column(self, l: int, n: int) -> None:
        have = self._column_hi.get(l, -1)
        if n <= have:
            return
        # grow with headroom: callers that walk a column upward one
        # degree at a time would otherwise rebuild the oracle per step
        n_hi = max(n, l - 1, 2 * have)
        oracle = series_oracle(l, n_hi)
        for k in range(n_hi + 1):
            key = (k, l)
            closed = self._entries.get(key)
            if closed is None:
                closed = gen_bernoulli(k, l)
            if closed != oracle[k]:
                raise TableConsistencyError(
                    f"B({k}, {l}): closed form {format_rational(closed)} vs "
                    f"series {format_rational(oracle[k])}"
                )
            self._entries[key] = closed
        self._column_hi[l] = n_hi


_DEFAULT_TABLE = GenBernoulliTable()


def default_table() -> GenBernoulliTable:
    """The process-wide verified table read by the weight and tau pipelines."""
    return _DEFAULT_TABLE
