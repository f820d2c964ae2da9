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

The tau coefficients then mix a weight system into these integers:

    tau(j, m) = -(2^(m-1) / ((m-1)! (2^m - 1)))
                * sum_{l=2j-1}^{m} w_l q(j, l) / 4^(j-1),

which :func:`tau_row` returns for 2 <= j <= (m+1)/2 (tau(1, m) is 0),
and for odd m = 2n+1 the top coefficient is tau(n+1, 2n+1) =
1/(2^(2n+1) - 1), which :func:`tau_top` returns directly; the verify
suite checks it against the general formula.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from .weights import solve_weights

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
    of :func:`tau_row` for n <= 20.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Fraction(1, 2 ** (2 * n + 1) - 1)


def tau_row(m: int) -> dict[int, Fraction]:
    """{j: tau(j, m)} for odd m >= 3 and 2 <= j <= (m+1)/2, from one weight
    solve mixed against q in integer arithmetic.

    j = 1 is left out because tau(1, m) = front * sum_l w_l q(1, l) =
    front * sum_l w_l = 0: the weights sum to zero (verify check 4 tests
    it for m <= 41; with the Stirling form of check 11 the sum is the
    z^m coefficient of log(1 + (e^z - 1)) = z).  Were it nonzero, the
    pairing with the moments would need I_0, which diverges at u = 0.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"degree m must be odd and >= 3, got {m}")
    weights = solve_weights(m).weights
    if any(w.denominator != 1 for w in weights):
        raise ArithmeticError(f"a weight of degree {m} is not an integer")
    w = [x.numerator for x in weights]
    front = -Fraction(2 ** (m - 1), math.factorial(m - 1) * (2**m - 1))
    return {
        j: front / 4 ** (j - 1) * sum(w[l - 1] * q_coeff(j, l) for l in range(2 * j - 1, m + 1))
        for j in range(2, _ceil_half(m) + 1)
    }
