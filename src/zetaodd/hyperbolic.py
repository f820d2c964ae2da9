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
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

__all__ = [
    "q_coeff",
    "partial_fraction_residual",
    "tau_top",
    "tau_row",
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
    integers rather than quadrature behavior.
    """
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
    :func:`~zetaodd.zeta.linear_form`, whose entries are central
    factorial numbers of the first kind, because the central factorial
    numbers of the first and second kind are inverse matrices (the
    proof is in :func:`~zetaodd.zeta.linear_form`).  At j = K+1,
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
