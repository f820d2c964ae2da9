"""Zeta values three ways, and the numeric check of the exact linear forms.

Routes to zeta(m):

* :func:`zeta_reference` is the Dirichlet series' value as mpmath
  computes it (``mpmath.zeta``).  It touches none of this package's
  exact tables or nodes, so it serves as the independent oracle for the
  other two routes.
* :func:`zeta_via_exp_kernel` collapses the degree-m weight system
  into a single integrand on (0, infinity), whose numerator is one
  integer polynomial per degree, built from Eulerian numbers
  (:func:`exp_kernel_polynomial`), and integrates it in q = e^-u.  The
  numerator is peeled into z = 4q/(1+q)^2, a polynomial of half the
  degree (:func:`_sech_row`).
* :func:`zeta_via_asech_kernel` (odd m only) pairs the exact tau
  coefficients with the singular moment integrals I_n on (0, 1):

      zeta(m) = pi^(m-1) * sum_j tau(j, m) I_{j-1},

  summed under the integral sign into one integer polynomial per
  degree (:func:`asech_kernel_polynomial`).

Both integral routes read their polynomial from power sums that every
degree shares (:class:`~zetaodd.quadrature.PowerSumKernel`): a sweep of
degrees forms each power of each node once.

Routes 2 and 3 integrate one polynomial.  In the variable v, with
q = e^(-2v) for route 2 and u = sech(v) for route 3, both points are
sech^2(v): z = 4q/(1+q)^2 and X = u^2.  Route 2's z-row is c_m times route
3's numerator row, c_m in {-2, -1, -1/2, -1/4, -1/8}: an exact integer
identity between the Eulerian and central factorial families, which
verify check 11 checks for every odd m <= 101.  So what agreement
between routes 2 and 3 adds (verify check 6, and the 2-vs-3 difference
in :func:`zeta_report`) is the two readings of one node table: the same
tanh-sinh nodes read as q and as u, with different bases and points
(Fe G^3 and 4qG^2, G = 1/(1+q), against Fa and u^2) from different
columns, w (1-q)/ln(1/q) and w u/asech(u)
(:func:`~zetaodd.quadrature._ts_level_columns`).  It does not test two
analytic representations: the two integrands, constants included, are
one integrand in v (checked numerically at m = 3, 5, 13, 41, not proved
here).  Only route 1 is independent of the quadrature.

The exact side of the same pairing, :func:`~zetaodd.hyperbolic.linear_form`
and the scan :func:`~zetaodd.hyperbolic.dimension_scan`, lives with the
tau closed forms in :mod:`zetaodd.hyperbolic`, which imports no mpmath;
:func:`linear_form_residual` evaluates a form's two sides here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .hyperbolic import LinearForm, tau_row
from .quadrature import (
    DEFAULT_PRECISION,
    PowerSumKernel,
    PrecisionConfig,
    integral_In,
    integrate_01_fixed,
)

__all__ = [
    "zeta_reference",
    "zeta3_exp_integral",
    "exp_kernel_polynomial",
    "asech_kernel_polynomial",
    "zeta_via_exp_kernel",
    "zeta_via_asech_kernel",
    "ZetaReport",
    "zeta_report",
    "linear_form_residual",
    "in_sequence_report",
]


def zeta_reference(m: int, digits: int = 30) -> mp.mpf:
    """zeta(m) by ``mpmath.zeta`` at digits + 15: an Euler product or
    Borwein's algorithm on integers (P. Borwein, "An efficient algorithm
    for the Riemann zeta function", CMS Conf. Proc. 27, 2000).  It reads
    none of this package's exact tables or nodes, so route 1 stays
    independent of routes 2 and 3.  mpmath caches that work per s and
    per precision (``zeta_int_cache``, ``borwein_cache``); no memo here."""
    if m < 2:
        raise ValueError(f"zeta_reference needs m >= 2, got {m}")
    with mp.workdps(digits + 15):
        return +mp.zeta(m)


def zeta3_exp_integral(cfg: PrecisionConfig = DEFAULT_PRECISION) -> mp.mpf:
    """zeta(3) from its dedicated exponential-kernel integral.

    The degree-3 weight system collapses, after clearing denominators,
    to the single integrand q (1 - q) / ((1 + q)^3 u) with q = e^-u,
    and zeta(3) = (4 pi^2 / 7) * integral over (0, infinity).  This is
    the general route at m = 3, where :func:`exp_kernel_polynomial`
    gives C_3(q) = -2q.  Written out by hand and integrated with
    ``mpmath.quad``, which the package does not otherwise use, so the
    two can be played against each other in tests and verify check 5.
    """

    def kernel(u):
        q = mp.exp(-u)
        return q * -mp.expm1(-u) / ((1 + q) ** 3 * u)

    with mp.workdps(cfg.eval_digits):
        return 4 * mp.pi**2 / 7 * mp.quad(kernel, [0, 1, mp.inf])


def exp_kernel_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients c_0..c_(m-1) of the exp kernel's numerator

        C_m(q) = sum_l w_l (1 + q + ... + q^(l-1)) (1 + q)^(m-l)

    for odd m >= 3, from the Eulerian numbers A(m-1, k)
    (https://oeis.org/A008292): (1 - q) C_m(q) = (-1)^((m-1)/2) 2q
    A_(m-1)(-q), so C_m is a running sum, exact since A_(m-1)(-1) = 0.
    No weight goes in; verify check 11 and the tests compare C_m with
    the Horner pass in (1 + q) over the weights.  c_0 = c_(m-1) = 0.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"degree m must be odd and >= 3, got {m}")
    row = [1]  # A(n, k) = (k+1) A(n-1, k) + (n-k) A(n-1, k-1), from A_1
    for n in range(2, m):
        row = [(k + 1) * a + (n - k) * b for k, (a, b) in enumerate(zip(row + [0], [0] + row))]
    sign = 2 * (-1) ** ((m - 1) // 2)
    return tuple(itertools.accumulate([0] + [sign * (-1) ** k * a for k, a in enumerate(row)]))


def asech_kernel_polynomial(m: int) -> tuple[tuple[int, ...], int]:
    """(a_0..a_k, D): the asech kernel's numerator
    T_m(x) = sum_j tau(j, m) x^(j-2) cleared by the tau row's common
    denominator D, so that D T_m(x) = A_m(x) = sum_i a_i x^i and
    zeta(m) = pi^(m-1) / D times the integral over (0, 1) of
    u A_m(u^2) / asech(u)."""
    taus = tau_row(m).values()
    denom = math.lcm(*(t.denominator for t in taus))
    return tuple(t.numerator * (denom // t.denominator) for t in taus), denom


def _digits(n: int) -> int:
    return len(str(abs(n)))


def _sech_row(c: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(n_0..n_k, E): the exp kernel's numerator in z = 4q/(1+q)^2, from
    the Eulerian coefficients ``c`` of C_m (:func:`exp_kernel_polynomial`)
    by peeling.

    C_m is palindromic of degree m - 1, so it is
    (1+q)^(m-1) sum_i r_i y^i with y = q/(1+q)^2 = z/4, i <= (m-1)/2:
    the lowest remaining coefficient is r_i, and r_i q^i (1+q)^(m-1-2i)
    is subtracted from the rest (r_0 = c_0 = 0).  Only the coefficients
    up to q^((m-1)/2) are read; verify check 11 rebuilds all of C_m from
    the row.  Then C_m(q)/(1+q)^m = q G^3 sum_i s_i z^i with
    G = 1/(1+q) and s_i = r_(i+1)/4^i.  The s_i are dyadic, with
    denominators at most 8 for m <= 101; E is their common denominator
    and n_i = -E s_i, the kernel's sign folded in.  No tau goes in:
    verify check 11 finds r_(i+1) = c_m 4^i a_i against
    :func:`asech_kernel_polynomial`, with c_m in
    {-2, -1, -1/2, -1/4, -1/8} for odd m <= 101.
    """
    half = (len(c) - 1) // 2
    rest = list(c[: half + 1])
    r = []
    for i, r_i in enumerate(rest):
        r.append(r_i)
        n, binomial = len(c) - 1 - 2 * i, 1
        for j in range(1, half + 1 - i):
            binomial = binomial * (n + 1 - j) // j
            rest[i + j] -= r_i * binomial
    s = [Fraction(r[i + 1], 4**i) for i in range(half)]
    denom = math.lcm(*(x.denominator for x in s))
    return tuple(int(-x * denom) for x in s), denom


def _exp_reading(columns, prec: int) -> tuple[int, int]:
    """The exp route's (base, point) at one member read as q = u:
    (Fe G^3, z = 4 U G^2) from the columns U = q and
    Fe = w (1-q)/ln(1/q), with G = 1/(1+q) >= 1/2 from the integer U and
    G^2 formed once for both."""
    u, fe, _ = columns
    one = 1 << prec
    g = (one << prec) // (one + u)
    g2 = g * g >> prec
    return fe * (g2 * g >> prec) >> prec, u * g2 >> prec - 2


def _asech_reading(columns, prec: int) -> tuple[int, int]:
    """The asech route's (base, point): the column Fa and X = u^2 from
    the integer u."""
    u, _, fa = columns
    return fa, u * u >> prec


@lru_cache(maxsize=1)
def _degree_setup(
    m: int, cfg: PrecisionConfig
) -> tuple[PrecisionConfig, PowerSumKernel, int, PowerSumKernel, int]:
    """The one precision both integral routes run at for degree m, and
    their kernels: cfg with a guard g(m) added to working_digits only,
    so the target and node depth stay the caller's and both routes
    share every node table and its power sums.  g(m) is the larger of
    two guards:

    * exp: digits(sum_k |c_k|) - digits(|C_m(1)|) + digits(m) + 5, with
      c_k the coefficients of C_m (6, 8, 13, 17 at m = 3, 13, 41, 61).
    * asech: 1 + ceil(log10(pi^(m-1) (sum_i (2i + 1) |a_i| + k) / D))
      for A_m of degree k (2, 5, 13, 18, 28 digits at m = 3, 13, 41, 61,
      101; above the exp guard at m = 53, 57, >= 61).

    Returns the precision, the exp route's :class:`PowerSumKernel` and
    its denominator E (:func:`_sech_row`), the asech route's kernel and
    D.  One entry is kept, so :func:`zeta_report`'s two routes build
    these once.

    Error of the power-sum form.  Both routes sum integer terms at
    P = p + 20 bits, p the bits of eval_digits, and each level total is
    sum_i c_i S_i with S_i = sum over members of base * point^i
    (:class:`~zetaodd.quadrature.PowerSumKernel`); the mix is exact, so
    every error sits in the powers.  Each power is the one before times
    the point, rounded: half a unit of 2^-P.  For a member with base b
    (error e_b) and point x <= 1 (error e_x), the i-th power errs by at
    most x^i e_b + i b x^(i-1) e_x + min(i, 1/(1 - x))/2 units, and the
    mix by sum_i |c_i| times that.  The readings' errors follow from the
    columns' (U, Fe, Fa within one unit) and from what the readings form
    of U, each truncated once: U's unit moves G = 1/(1+U) by at most
    G^2 <= 1 unit and X = U^2 by at most 2U <= 2, so G is within two
    units and X within three.  asech reads b = Fa and x = X, so e_b = 1
    and e_x = 3; exp forms G^2 (at most 4G + 1 units), G^3
    (6G^2 + G + 1), b = Fe G^3 (Fe (6G^2 + G + 1) + G^3 + 1) and z = 4 U G^2
    (4 U (4G + 1) + 4 G^2 + 1), each product truncated once.  A level
    sum is h times its members' errors, so the result errs by at most
    the integral of the member bound over t in [-t_max, t_max],
    t_max < 8 for targets under 1000.  The parts carrying b or Fe
    shrink with the node weight; the rest (e_b's terms free of Fe, and
    the rounding) does not, and dominates.  Over the integral itself,
    zeta(m) D/pi^(m-1) for asech and zeta(m) (2^m - 1) (m-1)! E /
    (2 pi)^(m-1) for exp, that is 1.3 and 2.1 digits at m = 3 and 26.9
    and 27.6 at m = 101, counted in units of 2^-P but held to g(m) as
    if they were 2^-p, so P's 20 extra bits stay spare.  Both readings
    stay below g(m) at every odd m <= 101 (tests/test_zeta.py checks
    each); the closest is exp at m = 83, 22.98 digits against 23.
    Truncated powers would double the rounding part, which g(m) does not
    cover for exp at m = 51, 55, ..., 83.  The two guard formulas were
    derived for Horner evaluation in q and in x; they are kept because
    this bound stays below them, and with them eval precision, node
    tables and every output.

    Both rows are integer closed forms, rebuilt for each new m or cfg:
    about 4 ms at m = 101.  ``--method exp`` builds the tau row too,
    since the shared guard keeps one set of node tables.
    """
    exp_coeffs = exp_kernel_polynomial(m)
    exp_guard = _digits(sum(map(abs, exp_coeffs))) - _digits(sum(exp_coeffs)) + _digits(m) + 5
    asech_coeffs, denom = asech_kernel_polynomial(m)
    envelope = sum((2 * i + 1) * abs(a) for i, a in enumerate(asech_coeffs))
    envelope += len(asech_coeffs) - 1
    asech_guard = 1 + math.ceil(math.log10(math.pi ** (m - 1) * (envelope / denom)))
    cfg = replace(cfg, working_digits=cfg.working_digits + max(exp_guard, asech_guard))
    sech_coeffs, exp_denom = _sech_row(exp_coeffs)
    return (
        cfg,
        PowerSumKernel(_exp_reading, sech_coeffs),
        exp_denom,
        PowerSumKernel(_asech_reading, asech_coeffs),
        denom,
    )


def zeta_via_exp_kernel(m: int, cfg: PrecisionConfig = DEFAULT_PRECISION) -> mp.mpf:
    """zeta(m) through the collapsed weight-system kernel.

    On the half line the kernel is
    -(1 - q)/u * sum_l w_l P^l (1 + q + ... + q^(l-1)) with q = e^-u and
    P = 1/(1+q), which is -(1 - q)/u * C_m(q) / (1 + q)^m for the
    integer polynomial C_m of :func:`exp_kernel_polynomial`.  With
    q = e^-u it becomes the integral over (0, 1) of
    -(d / L) C_m(q) / (1 + q)^m, with d = 1 - q and L = ln(1/q) carried
    by the node table: no exponential or logarithm per node.  Peeled
    into z = 4q/(1+q)^2 = sech^2(u/2) (:func:`_sech_row`), the kernel is
    -(d/L) q G^3 sum_i s_i z^i with G = 1/(1+q): half the degree, and
    the q cancels against the node weight's, leaving the base Fe G^3
    and the point z <= 1 that the level's power sums are read with.
    The designed-in vanishing of sum_l w_l happens exactly, in C_m's
    integer coefficients; what is left is the alternation of the s_i,
    which the degree's guard (:func:`_degree_setup`) covers.  The s_i
    are c_m times the asech route's numerator row, with
    c_m in {-2, -1, -1/2, -1/4, -1/8} (verify check 11), so the
    denominator E <= 8 of the s_i divides the result once, at the end.

    Odd m only: for even m the weighted kernel vanishes identically
    (the same cancellation that makes the odd case converge kills the
    whole integrand), so the route computes nothing there.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"degree m must be odd and >= 3, got {m}")
    cfg, kernel, exp_denom, _, _ = _degree_setup(m, cfg)
    res = integrate_01_fixed(kernel, cfg)
    with mp.workdps(cfg.eval_digits):
        front = (2 * mp.pi) ** (m - 1) / ((2**m - 1) * math.factorial(m - 1) * exp_denom)
        return front * res.value


def zeta_via_asech_kernel(m: int, cfg: PrecisionConfig = DEFAULT_PRECISION) -> mp.mpf:
    """zeta(m) as one integral of pi^(m-1) u T_m(u^2) / asech(u) over
    (0, 1), the pairing pi^(m-1) sum_j tau(j, m) I_(j-1) summed under the
    integral sign.  Same nodes and precision as the exp route, with
    asech(u) carried by the node table; A_m = D T_m is mixed from the
    level's power sums of Fa X^i, X = u^2
    (:class:`~zetaodd.quadrature.PowerSumKernel`), which are the
    moments' own terms, and pi^(m-1) / D is applied once, to the
    result."""
    if m < 3 or m % 2 == 0:
        raise ValueError(f"degree m must be odd and >= 3, got {m}")
    cfg, _, _, kernel, denom = _degree_setup(m, cfg)
    res = integrate_01_fixed(kernel, cfg)
    with mp.workdps(cfg.eval_digits):
        return mp.pi ** (m - 1) * res.value / denom


@dataclass(frozen=True)
class ZetaReport:
    """Three-way comparison of the zeta routes at one odd degree."""

    m: int
    reference: mp.mpf
    via_exp_kernel: mp.mpf
    via_asech_kernel: mp.mpf
    max_abs_diff: mp.mpf
    tolerance: mp.mpf
    passed: bool


def zeta_report(m: int, cfg: PrecisionConfig = DEFAULT_PRECISION) -> ZetaReport:
    """Run all three routes at degree m and compare them pairwise; the
    report passes when every difference is below 10^-(target - 5)."""
    if m < 3 or m % 2 == 0:
        raise ValueError(f"degree m must be odd and >= 3, got {m}")
    tolerance = mp.mpf(10) ** (-(cfg.target_digits - 5))
    reference = zeta_reference(m, cfg.target_digits + 10)
    exp_val = zeta_via_exp_kernel(m, cfg)
    asech_val = zeta_via_asech_kernel(m, cfg)
    with mp.workdps(cfg.working_digits):
        diffs = (
            abs(exp_val - reference),
            abs(asech_val - reference),
            abs(exp_val - asech_val),
        )
        worst = max(diffs)
    return ZetaReport(
        m=m,
        reference=reference,
        via_exp_kernel=exp_val,
        via_asech_kernel=asech_val,
        max_abs_diff=worst,
        tolerance=tolerance,
        passed=bool(worst < tolerance),
    )


def linear_form_residual(form: LinearForm, cfg: PrecisionConfig = DEFAULT_PRECISION) -> mp.mpf:
    """|sum_k theta_k zeta(2k+1)/pi^2k - theta_next I_n| numerically,
    summed at ``cfg.eval_digits``, the precision I_n is integrated at."""
    with mp.workdps(cfg.eval_digits):
        acc = mp.mpf(0)
        for k, th in enumerate(form.thetas, start=1):
            z = zeta_reference(2 * k + 1, cfg.target_digits + 10)
            acc += mp.mpf(th.numerator) / th.denominator * z / mp.pi ** (2 * k)
        tn = form.theta_next
        rhs = mp.mpf(tn.numerator) / tn.denominator * integral_In(form.n, cfg).value
        return abs(acc - rhs)


def in_sequence_report(
    n_max: int, cfg: PrecisionConfig = DEFAULT_PRECISION
) -> list[tuple[int, mp.mpf]]:
    """[(n, I_n)] for n = 1..n_max, checked strictly positive and
    strictly decreasing; a violation means quadrature noise exceeded
    the gap between neighbors, which the precision policy is supposed
    to make impossible, so it raises instead of returning."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    out = []
    prev = None
    for n in range(1, n_max + 1):
        value = integral_In(n, cfg).value
        if value <= 0:
            raise ArithmeticError(f"I_{n} evaluated non-positive: {mp.nstr(value, 10)}")
        if prev is not None and value >= prev:
            raise ArithmeticError(
                f"moment sequence not strictly decreasing at n = {n}"
            )
        out.append((n, value))
        prev = value
    return out
