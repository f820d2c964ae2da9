"""Zeta values three ways, plus the exact linear forms they satisfy.

Routes to zeta(m):

* :func:`zeta_reference` is the Dirichlet series' value as mpmath
  computes it (``mpmath.zeta``).  It touches none of this package's
  exact tables or nodes, so it serves as the independent oracle for the
  other two routes.
* :func:`zeta_via_exp_kernel` collapses the degree-m weight system
  into a single integrand on (0, infinity), whose numerator is one
  integer polynomial per degree, built from Eulerian numbers
  (:func:`exp_kernel_polynomial`), and integrates it in q = e^-u.
* :func:`zeta_via_asech_kernel` (odd m only) pairs the exact tau
  coefficients with the singular moment integrals I_n on (0, 1):

      zeta(m) = pi^(m-1) * sum_j tau(j, m) I_{j-1},

  summed under the integral sign into one integer polynomial per
  degree (:func:`asech_kernel_polynomial`).

What agreement between routes 2 and 3 tests (verify check 6, and the
2-vs-3 difference in :func:`zeta_report`): two exact families, C_m
from Eulerian numbers against the tau row from central factorial
numbers (:func:`~zetaodd.hyperbolic.tau_row`), and two readings of one
node table, the same tanh-sinh nodes read as q and as u, through its
columns w (1-q)/ln(1/q) and w u/asech(u)
(:func:`~zetaodd.quadrature._ts_level_columns`).  It does not test two
analytic representations: with u = sech(v) and q = e^(-2v) the two
integrands, constants included, are one integrand in v (checked
numerically at m = 3, 5, 13, 41, not proved here).  Only route 1 is
independent of the quadrature.

The exact side of the same pairing is :func:`linear_form`: for each n
a rational combination of zeta(3)/pi^2, zeta(5)/pi^4, ...,
zeta(2n+1)/pi^2n that telescopes through the tau array to
theta_next * I_n, with theta_next = 1, its thetas central factorial
numbers of the first kind in closed form.  The scan
(:func:`dimension_scan`, the CLI's ``scan``) prints the top coefficients tau(n+1, 2n+1), proved
nonzero: they equal 1/(2^(2n+1) - 1) for every n (proof in
:func:`~zetaodd.hyperbolic.tau_top`).  The scan does not prove that the
span of the zeta ratios grows: I_n itself might be a rational
combination of the lower ratios.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial

import mpmath as mp

from .hyperbolic import tau_row, tau_top
from .quadrature import (
    DEFAULT_PRECISION,
    PrecisionConfig,
    _power_fixed,
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
    "LinearForm",
    "linear_form",
    "linear_form_residual",
    "ScanRow",
    "ScanReport",
    "dimension_scan",
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


def _horner_int(shifted, x: int, prec: int) -> int:
    """Horner's rule on integers at ``prec`` fractional bits: x and the
    result in units of 2^-prec, ``shifted`` the coefficients highest
    first, each already shifted left by prec."""
    acc = 0
    for c in shifted:
        acc = (acc * x >> prec) + c
    return acc


def _exp_term(coeffs, prec: int):
    """The exp route's term for
    :func:`~zetaodd.quadrature.integrate_01_fixed`: w times the q-form
    kernel -(d/L) D_m(q)/(1+q)^m at the node q, with d = 1 - q,
    L = ln(1/q) and ``coeffs`` the integer coefficients of D_m = C_m / q,
    highest first.  It is -(Fe D_m(U) G^m) from the columns U = q,
    G = 1/(1+q) and Fe = w (1-q)/ln(1/q), all integers at ``prec``
    fractional bits.  D_m(U) is :func:`_horner_int`; G^m is taken as
    (2G)^m 2^-m (:func:`~zetaodd.quadrature._power_fixed`), since
    2G >= 1 keeps every truncation of the power relative; one shift
    rounds the product back to prec bits."""
    m = len(coeffs) + 1
    shifted = [c << prec for c in coeffs]
    shift = 2 * prec + m

    def term(columns):
        u, g, fe, _, _ = columns
        power = _power_fixed(g << 1, m, prec)
        return -(fe * _horner_int(shifted, u, prec) * power >> shift)

    return term


def _asech_term(coeffs, prec: int):
    """The asech route's term Fa A_m(X) for
    :func:`~zetaodd.quadrature.integrate_01_fixed`, from the columns
    X = u^2 and Fa = w u/asech(u) at ``prec`` fractional bits."""
    shifted = [c << prec for c in coeffs]

    def term(columns):
        _, _, _, x, fa = columns
        return fa * _horner_int(shifted, x, prec) >> prec

    return term


def _degree_setup(m: int, cfg: PrecisionConfig) -> tuple[PrecisionConfig, tuple, tuple, int]:
    """The one precision both integral routes run at for degree m, and
    their kernels: cfg with a guard g(m) added to working_digits only,
    so the target and node depth stay the caller's and both routes
    share every node table.  g(m) is the larger of two guards:

    * exp: digits(sum_k |c_k|) - digits(|C_m(1)|) + digits(m) + 5, the
      cancellation of C_m at q = 1 (u = 0, where the kernel peaks),
      digits(m) for the error's growth with the degree and 5 to spare
      (6, 8, 13, 17 at m = 3, 13, 41, 61).  Fixed-point D_m = C_m / q
      errs by at most (m + sum_k (k-1) |c_k| q^(k-2)) 2^-p at q; weighted
      by (1 - q)/(L (1 + q)^m) over the integral that is 2.6, 8.3, 12.3
      and 20.3 digits at m = 13, 41, 61, 101.
    * asech: 1 + ceil(log10(pi^(m-1) (sum_i (2i + 1) |a_i| + k) / D))
      for A_m of degree k.  The integral is zeta(m) D / pi^(m-1) with
      zeta(m) > 1 and every I_n < 1, so pi^(m-1) sum_i |a_i| / D bounds
      the cancellation, and pi^(m-1) (k + 2 sum_i i |a_i|) / D the
      fixed-point error of A_m at x = u^2 (rounded, then truncated);
      one digit covers the other roundings.  2, 5, 13, 18, 28 digits at
      m = 3, 13, 41, 61, 101: above the exp guard at m = 53, 57, >= 61.

    tests/test_zeta.py checks both for every odd m <= 101.  Returns the
    precision, D_m's and A_m's coefficients highest first, and D.

    The routes sum integer terms (:func:`_exp_term`, :func:`_asech_term`;
    "Integer level sums" in :mod:`zetaodd.quadrature`) at
    P = p + 20 bits, so every 2^-p above becomes 2^-P.  Of the columns,
    U, G and X are within one, two and three units and Fe, Fa within
    one, each times the term's slope in it: the Horner bounds above for
    U and X, and the unweighted kernels |D_m G^m| and |A_m|, under the
    same envelopes, for Fe and Fa.  G^m is formed as (2G)^m 2^-m: 2G
    lies in [1, 2], so each of the power's at most 2 log2(m) truncations
    costs at most 2^-P relative, and G^m errs by at most
    (4m + 2 log2 m) 2^-P relative, which digits(m) covers.  Truncating
    G^m itself to P bits would cost up to m log10(2) digits at q = 1,
    where G = 1/2 and the kernel peaks.  The tests check both terms node
    by node against their mpf kernels at textbook nodes, and both routes
    against ``mpmath.zeta`` on the precision grid.

    Guard and kernels depend on m alone and are built on every call,
    with no memo: both are integer closed forms, about 1.6 ms at
    m = 101.  ``--method exp`` builds the tau row too, since the shared
    guard keeps one set of node tables.
    """
    exp_coeffs = exp_kernel_polynomial(m)
    exp_guard = _digits(sum(map(abs, exp_coeffs))) - _digits(sum(exp_coeffs)) + _digits(m) + 5
    asech_coeffs, denom = asech_kernel_polynomial(m)
    envelope = sum((2 * i + 1) * abs(a) for i, a in enumerate(asech_coeffs))
    envelope += len(asech_coeffs) - 1
    asech_guard = 1 + math.ceil(math.log10(math.pi ** (m - 1) * (envelope / denom)))
    cfg = replace(cfg, working_digits=cfg.working_digits + max(exp_guard, asech_guard))
    return cfg, exp_coeffs[:0:-1], asech_coeffs[::-1], denom


def zeta_via_exp_kernel(m: int, cfg: PrecisionConfig = DEFAULT_PRECISION) -> mp.mpf:
    """zeta(m) through the collapsed weight-system kernel.

    On the half line the kernel is
    -(1 - q)/u * sum_l w_l P^l (1 + q + ... + q^(l-1)) with q = e^-u and
    P = 1/(1+q), which is -(1 - q)/u * C_m(q) / (1 + q)^m for the
    integer polynomial C_m of :func:`exp_kernel_polynomial`.  With
    q = e^-u it becomes the integral over (0, 1) of
    -(d / L) D_m(q) / (1 + q)^m, with d = 1 - q, L = ln(1/q) and
    D_m = C_m / q (exact, since c_0 = 0), with L carried by the node
    table: no exponential or logarithm per integrand call, and the level
    sums taken in integers (:func:`_exp_term`).  The designed-in
    vanishing of sum_l w_l happens exactly, in C_m's integer coefficients; what is left is
    Horner's own cancellation, which the degree's guard
    (:func:`_degree_setup`) covers.

    Odd m only: for even m the weighted kernel vanishes identically
    (the same cancellation that makes the odd case converge kills the
    whole integrand), so the route computes nothing there.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"degree m must be odd and >= 3, got {m}")
    cfg, coeffs, _, _ = _degree_setup(m, cfg)
    res = integrate_01_fixed(partial(_exp_term, coeffs), cfg)
    with mp.workdps(cfg.eval_digits):
        front = (2 * mp.pi) ** (m - 1) / ((2**m - 1) * math.factorial(m - 1))
        return front * res.value


def zeta_via_asech_kernel(m: int, cfg: PrecisionConfig = DEFAULT_PRECISION) -> mp.mpf:
    """zeta(m) as one integral of pi^(m-1) u T_m(u^2) / asech(u) over
    (0, 1), the pairing pi^(m-1) sum_j tau(j, m) I_(j-1) summed under the
    integral sign.  Same nodes and precision as the exp route, with
    asech(u) carried by the node table; A_m = D T_m by fixed-point
    Horner, the level sums in integers (:func:`_asech_term`), and
    pi^(m-1) / D applied once, to the result."""
    if m < 3 or m % 2 == 0:
        raise ValueError(f"degree m must be odd and >= 3, got {m}")
    cfg, _, coeffs, denom = _degree_setup(m, cfg)
    res = integrate_01_fixed(partial(_asech_term, coeffs), cfg)
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
    :func:`~zetaodd.hyperbolic.tau_row`, so sum_K theta_K tau*(j+1, 2K+1)
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

    Each entry is nonzero (proof in :func:`~zetaodd.hyperbolic.tau_top`),
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
    :func:`~zetaodd.hyperbolic.tau_top`, which has the proof; verify
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
