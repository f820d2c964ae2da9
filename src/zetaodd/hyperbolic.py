"""Partial-fraction structure of symmetric exponential sums and the
rational coefficients that pair with the inverse-asech integrals.

For order l >= 1 the symmetric sum e^((1-l)u) + e^((3-l)u) + ... +
e^((l-1)u), divided by (e^u + e^-u)^l, collapses onto odd negative
powers of y = e^u + e^-u:

    sum_{p=0}^{l-1} e^((2p+1-l)u) / y^l  =  sum_{j=1}^{ceil(l/2)} q(j, l) / y^(2j-1)

with integer coefficients q(j, l) = (-1)^(j-1) C(l-j, j-1), the
Chebyshev-U coefficients (proof in :func:`tau_top`;
https://oeis.org/A011973).  That closed form is what :func:`q_coeff`
returns.  The paper defines the same integers by the recursion

    q(1, l) = 1,
    q(j, l) = 1 - sum_{k=1}^{j-1} C(l+1-2k, j-k) q(k, l),

which lives in the verify suite as the closed form's oracle.

The paper's tau coefficients mix a weight system into these integers:

    tau(j, m) = -(2^(m-1) / ((m-1)! (2^m - 1)))
                * sum_{l=2j-1}^{m} w_l q(j, l) / 4^(j-1),

for 2 <= j <= (m+1)/2 (tau(1, m) is 0).  :func:`tau_row` returns an
integer closed form instead, from central factorial numbers, which
uses neither the weights nor q; the weight mixing lives in the verify
suite as its oracle.  For odd m = 2n+1 the top coefficient is
tau(n+1, 2n+1) = 1/(2^(2n+1) - 1), which :func:`tau_top` returns
directly.

The same integers give the exact side of the zeta pairing.
:func:`linear_form` is, for each n, the rational combination of
zeta(3)/pi^2, zeta(5)/pi^4, ..., zeta(2n+1)/pi^2n that telescopes
through the tau array to theta_next * I_n, with theta_next = 1 and its
thetas central factorial numbers of the first kind in closed form.
:func:`dimension_scan` (the CLI's ``scan``) lists the top coefficients
tau(n+1, 2n+1), proved nonzero.  The scan does not prove that the span
of the zeta ratios grows: I_n itself might be a rational combination of
the lower ratios.

Everything here is integer and :class:`fractions.Fraction` arithmetic;
only :func:`partial_fraction_residual` evaluates, and it imports mpmath
when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import mpmath as mp

__all__ = [
    "q_coeff",
    "partial_fraction_residual",
    "tau_top",
    "tau_row",
    "LinearForm",
    "linear_form",
    "ScanRow",
    "ScanReport",
    "dimension_scan",
]


def _ceil_half(l: int) -> int:
    return (l + 1) // 2


def q_coeff(j: int, l: int) -> int:
    """Integer partial-fraction coefficient q(j, l) = (-1)^(j-1) C(l-j, j-1),
    for 1 <= j <= ceil(l/2)."""
    if l < 1:
        raise ValueError(f"order l must be >= 1, got {l}")
    if not 1 <= j <= _ceil_half(l):
        raise ValueError(
            f"index j must be in 1..ceil(l/2) = 1..{_ceil_half(l)}, got {j}"
        )
    sign = -1 if (j - 1) & 1 else 1
    return sign * math.comb(l - j, j - 1)


def partial_fraction_residual(l: int, u) -> mp.mpf:
    """|direct sum - staircase expansion| at the point u > 0.

    Evaluated at the ambient mpmath precision; both sides are computed
    from scratch, so the residual measures the exactness of the q
    integers rather than quadrature behavior.  mpmath is imported here,
    so that the exact layer loads none of it.
    """
    import mpmath as mp

    if l < 1:
        raise ValueError(f"order l must be >= 1, got {l}")
    u = mp.mpf(u)
    if u <= 0:
        raise ValueError("residual check requires u > 0")
    y = mp.exp(u) + mp.exp(-u)
    step = mp.exp(2 * u)
    term = mp.exp((1 - l) * u)
    direct = mp.mpf(0)
    for _ in range(l):
        direct += term
        term *= step
    direct /= y**l
    expanded = mp.mpf(0)
    for j in range(1, _ceil_half(l) + 1):
        expanded += q_coeff(j, l) / y ** (2 * j - 1)
    return abs(direct - expanded)


def tau_top(n: int) -> Fraction:
    """tau(n+1, 2n+1) = 1/(2^(2n+1) - 1), by its closed form.

    Proof: with y = e^u + e^-u = 2 cosh u, the symmetric sum is

        sum_{p=0}^{l-1} e^((2p+1-l)u) = sinh(lu) / sinh(u) = U_{l-1}(y/2)

    (Chebyshev U), and U_{l-1}(y/2) = sum_i (-1)^i C(l-1-i, i) y^(l-1-2i).
    Dividing by y^l and putting j = i + 1 gives the staircase expansion
    with coefficients (-1)^(j-1) C(l-j, j-1); the coefficients of an
    expansion in powers of 1/y are unique, so

        q(j, l) = (-1)^(j-1) C(l-j, j-1),

    and at the top q(n+1, 2n+1) = (-1)^n C(n, n) = (-1)^n.  Only the
    l = m term of the mixing sum survives at the top index, so

        tau(n+1, 2n+1) = -w_m q(n+1, m) / ((2n)! (2^m - 1)).

    The weight system has a unit diagonal, so w_m = -s_m, which for odd
    m = 2n+1 is (-1)^(n+1) (2n)!; the top coefficient is therefore

        -(-1)^(n+1) (2n)! (-1)^n / ((2n)! (2^m - 1)) = 1 / (2^m - 1).

    Check 11 of the verify suite compares :func:`q_coeff` with the
    paper's recursion for l <= 119 and this function with the top entry
    of the paper's tau, through the weight solve, for n <= 50.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Fraction(1, 2 ** (2 * n + 1) - 1)


def _central_factorial_row(n: int) -> list[int]:
    """[T(2n, 0), T(2n, 2), ..., T(2n, 2n)], central factorial numbers of
    the second kind (https://oeis.org/A036969), by
    T(2n, 2k) = T(2n-2, 2k-2) + k^2 T(2n-2, 2k) from T(0, 0) = 1."""
    row = [1]
    for i in range(1, n + 1):
        row = [(row[k - 1] if k else 0) + k * k * (row[k] if k < i else 0) for k in range(i + 1)]
    return row


def tau_row(m: int) -> dict[int, Fraction]:
    """{j: tau(j, m)} for odd m = 2K+1 >= 3 and 2 <= j <= K+1, by the
    closed form

        tau*(j, m) = (-1)^(K-j+1) 4^(K-j+1) (2j-2)! T(2K, 2j-2)
                     / ((2^m - 1) (2K)!)

    with T the central factorial numbers of the second kind
    (:func:`_central_factorial_row`; Butzer, Schmidt, Stark and Vogt,
    Numer. Funct. Anal. Optim. 10, 1989).  O(K^2) integers, no weight
    solve and no Bernoulli number.

    Proved: tau* is the inverse of the theta array of
    :func:`linear_form`, whose entries are central factorial numbers of
    the first kind, because the central factorial numbers of the first
    and second kind are inverse matrices (the proof is in
    :func:`linear_form`).  At j = K+1,
    T(2K, 2K) = 1 gives tau_top(K) = 1/(2^m - 1).  Observed, not
    proved: tau* equals the paper's tau, the weight solve mixed against
    q, for every odd m <= 101, the CLI's whole range (verify check 11;
    a slow test adds m = 121).

    j = 1 is left out because the paper's tau(1, m) = front * sum_l
    w_l q(1, l) = front * sum_l w_l = 0: the weights sum to zero
    (verify check 4 tests it for m <= 41; with the Stirling form of
    :func:`~zetaodd.weights.solve_weights` the sum is the z^m coefficient
    of log(1 + (e^z - 1)) = z).
    Were it nonzero, the pairing with the moments would need I_0, which
    diverges at u = 0.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"degree m must be odd and >= 3, got {m}")
    K = m // 2
    T = _central_factorial_row(K)
    denom = (2**m - 1) * math.factorial(2 * K)
    return {
        k + 1: Fraction((-4) ** (K - k) * math.factorial(2 * k) * T[k], denom)
        for k in range(1, K + 1)
    }


# -- exact linear forms --------------------------------------------------

@dataclass(frozen=True)
class LinearForm:
    """Rational combination  sum_k theta_k zeta(2k+1) / pi^2k  =
    theta_next * I_n, with all theta exact.

    ``thetas[k-1]`` multiplies zeta(2k+1)/pi^2k for k = 1..n.
    """

    n: int
    thetas: tuple[Fraction, ...]
    theta_next: Fraction


def linear_form(n: int) -> LinearForm:
    """The telescoping combination ending at the single moment I_n, in
    closed form: theta_next = 1 and, for K = 1..n,

        theta_K = (2^(2K+1) - 1) (2K)! |e_(K-1)| / (2n)!,

    with e_(K-1) the coefficient of y^(K-1) in
    prod_(j=1)^(n-1) (y - 4j^2) (https://oeis.org/A008955).

    Proved: these thetas invert the tau* array of
    :func:`tau_row`, so sum_K theta_K tau*(j+1, 2K+1)
    is 0 for j < n and 1 for j = n.  With y = 4x^2 the product is
    sum_K 4^(n-K) t(2n, 2K) y^(K-1), t the central factorial numbers of
    the first kind (x^2 (x^2 - 1) ... (x^2 - (n-1)^2) = sum_K t(2n, 2K)
    x^(2K)), whose signs alternate, so |e_(K-1)| = (-1)^(n-K) 4^(n-K)
    t(2n, 2K).  The sum is then (-4)^(n-j) (2j)!/(2n)! times
    sum_K t(2n, 2K) T(2K, 2j), and the first and second kinds are
    inverse matrices.  Every theta is positive: |e_(K-1)| is an
    elementary symmetric sum of the positive 4j^2.  That these are the
    thetas of the paper's tau, the weight solve mixed against q, rests
    on tau* = tau, observed for every odd m <= 101; verify check 11
    telescopes them against that tau for n <= 50.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    e = [1]  # prod_(j<n) (y - 4j^2), lowest power first
    for j in range(1, n):
        e = [(e[i - 1] if i else 0) - 4 * j * j * (e[i] if i < j else 0) for i in range(j + 1)]
    denom = math.factorial(2 * n)
    thetas = tuple(
        Fraction((2 ** (2 * k + 1) - 1) * math.factorial(2 * k) * abs(e[k - 1]), denom)
        for k in range(1, n + 1)
    )
    return LinearForm(n, thetas, Fraction(1))


# -- the dimension criterion ---------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    n: int
    m: int
    tau_value: Fraction
    is_zero: bool


@dataclass(frozen=True)
class ScanReport:
    """Top tau coefficients tau(n+1, 2n+1) over a range of n.

    Each entry is nonzero (proof in :func:`tau_top`),
    so I_n enters the linear form of degree 2n+1.  That is evidence for
    the rational span of the zeta ratios growing without bound, not a
    proof.
    """

    rows: tuple[ScanRow, ...]

    @property
    def all_nonzero(self) -> bool:
        return all(not r.is_zero for r in self.rows)

    def summary(self) -> str:
        n_max = self.rows[-1].n if self.rows else 0
        return (
            f"all top coefficients nonzero for n = 1..{n_max}: every moment "
            "I_n in range adds a new direction (evidence of unbounded span, "
            "not a proof)"
        )


def dimension_scan(n_max: int = 20) -> ScanReport:
    """Evaluate tau(n+1, 2n+1) exactly for n = 1..n_max.

    Every row is 1/(2^(2n+1) - 1), so a scan can never report a zero:
    q(n+1, 2n+1) = (-1)^n (the top Chebyshev-U coefficient) and
    w_{2n+1} = (-1)^(n+1) (2n)! cancel the other factors of the top
    coefficient exactly.  The rows come from the closed form in
    :func:`tau_top`, which has the proof; verify
    check 11 compares it with the top entry of the paper's tau, through
    the weight solve, for n <= 50.  What the identity does not prove is
    that the span of the zeta ratios grows, since I_n itself might be a
    rational combination of the lower ratios; the summary line says so.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    rows = []
    for n in range(1, n_max + 1):
        value = tau_top(n)
        rows.append(ScanRow(n=n, m=2 * n + 1, tau_value=value, is_zero=value == 0))
    return ScanReport(tuple(rows))
