"""Zeta values three ways, plus the exact linear forms they satisfy.

Routes to zeta(m):

* :func:`zeta_reference` sums the Dirichlet series with an
  Euler-Maclaurin tail.  It touches none of this package's exact
  tables (the tail constants come from mpmath's own bernoulli), so it
  can serve as an independent oracle for the other two routes.
* :func:`zeta_via_exp_kernel` collapses the degree-m weight system
  into a single smooth integrand on (0, infinity), whose numerator is
  one exact integer polynomial per degree
  (:func:`exp_kernel_polynomial`) evaluated by Horner's rule; its guard
  digits come from that polynomial's own cancellation.
* :func:`zeta_via_asech_kernel` (odd m only) pairs the exact tau
  coefficients with the singular moment integrals I_n on (0, 1):

      zeta(m) = pi^(m-1) * sum_j tau(j, m) I_{j-1}.

The exact side of the same pairing is :func:`linear_form`: for each n
it back-solves the triangular tau array so that a rational combination
of zeta(3)/pi^2, zeta(5)/pi^4, ..., zeta(2n+1)/pi^2n telescopes to
theta_next * I_n.  Whether theta_next can ever vanish is what
:func:`dimension_scan` probes, via the top coefficients tau(n+1, 2n+1);
those equal 1/(2^(2n+1) - 1) for every n (proof in
:func:`~zetaodd.hyperbolic.tau_top`), so none of them is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath as mp

from .exact import ExactRational, factorial
from .hyperbolic import tau, tau_row, tau_top
from .quadrature import (
    DEFAULT_PRECISION,
    PrecisionConfig,
    integral_In,
    integrate_0inf_decaying,
)
from .weights import solve_weights

__all__ = [
    "zeta_reference",
    "zeta3_exp_integral",
    "exp_kernel_polynomial",
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
    """zeta(m) by Dirichlet series plus Euler-Maclaurin tail.

    Deliberately independent of the weight/tau machinery: the only
    inputs are integer powers and mpmath's classical Bernoulli numbers.
    The cutoff N and the tail order adapt until the first omitted tail
    term is below 10^-(digits + 10); the tail is asymptotic, so if its
    terms stop shrinking before that point the cutoff is doubled and
    the sum restarts.
    """
    if m < 2:
        raise ValueError(f"zeta_reference needs m >= 2, got {m}")
    with mp.workdps(digits + 15):
        s = mp.mpf(m)
        want = mp.mpf(10) ** (-(digits + 10))
        N = max(10, digits)
        while True:
            acc = mp.mpf(0)
            for v in range(1, N):
                acc += mp.mpf(v) ** (-s)
            acc += mp.mpf(N) ** (-s) / 2
            acc += mp.mpf(N) ** (1 - s) / (s - 1)
            rising = s
            npow = mp.mpf(N) ** (-s - 1)
            n_inv_sq = mp.mpf(N) ** (-2)
            prev = mp.inf
            converged = False
            for k in range(1, 200):
                term = mp.bernoulli(2 * k) / factorial(2 * k) * rising * npow
                if abs(term) <= want:
                    acc += term
                    converged = True
                    break
                if abs(term) >= prev:
                    break  # asymptotic tail turned around; need larger N
                acc += term
                prev = abs(term)
                rising *= (s + 2 * k - 1) * (s + 2 * k)
                npow *= n_inv_sq
            if converged:
                return +acc
            N *= 2


def _q_and_complement(u) -> tuple[mp.mpf, mp.mpf]:
    """(q, 1 - q) with q = e^-u, from one exponential.

    Below u = 1 the complement is the small one and comes from expm1;
    from u = 1 on, q <= 1/e and 1 - q >= 1 - 1/e, so neither
    subtraction cancels.
    """
    if u < 1:
        d = -mp.expm1(-u)
        return 1 - d, d
    q = mp.exp(-u)
    return q, 1 - q


def zeta3_exp_integral(cfg: PrecisionConfig = DEFAULT_PRECISION) -> mp.mpf:
    """zeta(3) from its dedicated exponential-kernel integral.

    The degree-3 weight system collapses, after clearing denominators,
    to the single integrand q (1 - q) / ((1 + q)^3 u) with q = e^-u,
    and zeta(3) = (4 pi^2 / 7) * integral.  This is the general route at
    m = 3, where :func:`exp_kernel_polynomial` gives C_3(q) = -2q.
    Written out by hand rather than delegated to
    :func:`zeta_via_exp_kernel` so the two can be played against each
    other in tests.
    """

    def kernel(u):
        q, d = _q_and_complement(u)
        return q * d / ((1 + q) ** 3 * u)

    res = integrate_0inf_decaying(kernel, cfg)
    with mp.workdps(cfg.half_line_digits):
        return 4 * mp.pi**2 / 7 * res.value


def exp_kernel_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients c_0..c_(m-1) of the exp kernel's numerator

        C_m(q) = sum_l w_l (1 + q + ... + q^(l-1)) (1 + q)^(m-l),

    built by a Horner pass in (1 + q) over the weights of
    :func:`~zetaodd.weights.solve_weights`: step l multiplies the
    running polynomial by (1 + q) and adds w_l (1 + q + ... + q^(l-1)).
    The weights are integers ((-1)^(m//2+l) (l-1)! S(m, l), verify
    check 11), so every step is exact.  c_0 = c_(m-1) = sum_l w_l = 0
    for m >= 2.  For odd m, (1 - q) C_m(q) = (-1)^((m-1)/2) 2q A_(m-1)(-q)
    with A_n the Eulerian polynomial; check 11 compares the two.
    """
    coeffs: list[int] = []
    for w in solve_weights(m).weights:
        if w.denominator != 1:
            raise ArithmeticError(f"weight {w} of degree {m} is not an integer")
        w = w.numerator
        coeffs = [a + b + w for a, b in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


def _digits(n: int) -> int:
    return len(str(abs(n)))


def _exp_kernel(u, coeffs) -> mp.mpf:
    """-(1 - q)/u * C_m(q) / (1 + q)^m with q = e^-u; ``coeffs`` are the
    m coefficients c_(m-1)..c_0 as mpf, highest first, for Horner."""
    q, d = _q_and_complement(u)
    acc = mp.mpf(0)
    for c in coeffs:
        acc = acc * q + c
    return -(d / u) * acc / (1 + q) ** len(coeffs)


def _exp_route_setup(m: int, cfg: PrecisionConfig) -> tuple[PrecisionConfig, tuple]:
    """The exp route's precision and kernel coefficients at degree m.

    Horner evaluation of C_m(q) = sum_k c_k q^k has absolute error of
    order m eps sum_k |c_k| q^k.  The guard added to working_digits is

        digits(sum_k |c_k|) - digits(|C_m(1)|) + digits(m) + 5,

    the cancellation of that sum at q = 1 (u = 0, where the kernel is
    largest), plus digits(m) for the error's growth with the degree
    and 5 to spare: 6, 8, 13 and 17 digits at m = 3, 13, 41 and 61.
    The check behind it: the pointwise ratio sum |c_k| q^k / |C_m(q)|
    is unbounded, because C_m has real roots in (0, 1) for m >= 5
    (those of A_(m-1)(-q); Eulerian polynomials have only real roots),
    so the measure is the kernel's envelope instead,
    max_q g(q) sum |c_k| q^k / max_q g(q) |C_m(q)| with
    g(q) = (1 - q)/(u (1 + q)^m).  Sampled on a q grid it stays below
    the guard for every odd m <= 61 (tests/test_zeta.py); it is 1.3,
    6.3 and 10.1 digits at m = 13, 41 and 61, and the integral's own
    ratio (integral of g sum |c_k| q^k over |integral of g C_m|) is
    1.7, 6.9 and 10.8.

    Returns cfg with the guard added to working_digits, and the
    coefficients as mpf, highest first, converted once at the precision
    the kernel runs at (cfg.half_line_digits).
    """
    coeffs = exp_kernel_polynomial(m)
    guard = _digits(sum(abs(c) for c in coeffs)) - _digits(sum(coeffs)) + _digits(m) + 5
    cfg = replace(cfg, working_digits=cfg.working_digits + guard)
    with mp.workdps(cfg.half_line_digits):
        return cfg, tuple(mp.mpf(c) for c in reversed(coeffs))


def zeta_via_exp_kernel(m: int, cfg: PrecisionConfig = DEFAULT_PRECISION) -> mp.mpf:
    """zeta(m) through the collapsed weight-system kernel on (0, inf).

    The kernel (:func:`_exp_kernel`) is
    -(1 - q)/u * sum_l w_l P^l (1 + q + ... + q^(l-1)) with q = e^-u and
    P = 1/(1+q), which is -(1 - q)/u * C_m(q) / (1 + q)^m for the
    integer polynomial C_m of :func:`exp_kernel_polynomial`.  The
    designed-in vanishing of sum_l w_l happens exactly, in C_m's
    integer coefficients; what is left is Horner's own cancellation,
    which :func:`_exp_route_setup` adds to the working precision up
    front (13 digits at m = 41).

    Odd m only: for even m the weighted kernel vanishes identically
    (the same cancellation that makes the odd case converge kills the
    whole integrand), so the route computes nothing there.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"degree m must be odd and >= 3, got {m}")
    cfg, coeffs = _exp_route_setup(m, cfg)
    res = integrate_0inf_decaying(lambda u: _exp_kernel(u, coeffs), cfg)
    with mp.workdps(cfg.half_line_digits):
        front = (2 * mp.pi) ** (m - 1) / ((2**m - 1) * factorial(m - 1))
        return front * res.value


def zeta_via_asech_kernel(m: int, cfg: PrecisionConfig = DEFAULT_PRECISION) -> mp.mpf:
    """zeta(m) from the tau coefficients and the singular moments I_n."""
    if m < 3 or m % 2 == 0:
        raise ValueError(f"degree m must be odd and >= 3, got {m}")
    row = tau_row(m)
    eval_dps = cfg.eval_digits
    with mp.workdps(eval_dps):
        acc = mp.mpf(0)
        for j in sorted(row.taus):
            t = row.taus[j]
            if t == 0:
                continue
            moment = integral_In(j - 1, cfg).value
            acc += mp.mpf(t.numerator) / t.denominator * moment
        return mp.pi ** (m - 1) * acc


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


def zeta_report(
    m: int,
    cfg: PrecisionConfig = DEFAULT_PRECISION,
    tolerance=None,
) -> ZetaReport:
    """Run all three routes at degree m and compare them pairwise."""
    if m < 3 or m % 2 == 0:
        raise ValueError(f"degree m must be odd and >= 3, got {m}")
    if tolerance is None:
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
        tolerance=mp.mpf(tolerance),
        passed=bool(worst < tolerance),
    )


# -- exact linear forms --------------------------------------------------

@dataclass(frozen=True)
class LinearForm:
    """Rational combination  sum_k theta_k zeta(2k+1) / pi^2k  =
    theta_next * I_n, with all theta exact.

    ``thetas[k-1]`` multiplies zeta(2k+1)/pi^2k for k = 1..n.  When the
    top tau coefficient of degree 2n+1 vanishes, theta_next is 0 and
    the same combination collapses to an exact rational relation among
    the lower zeta ratios instead.
    """

    n: int
    thetas: tuple[ExactRational, ...]
    theta_next: ExactRational


def _solve_telescoping(t_rows: list[list[Fraction]]) -> tuple[list[Fraction], Fraction]:
    """Back-solve theta so that sum_k theta_k * row_k kills every moment
    below the top one.

    ``t_rows[k-1][j-1]`` is the coefficient of I_j in row k (row k has
    entries for j = 1..k, a lower-triangular array).  theta_n is fixed
    first: 1/diagonal when the last diagonal entry is nonzero, so the
    combination is monic in I_n; otherwise theta_n = 1 and the
    combination telescopes to zero exactly.  Columns j = n-1..1 then
    determine the rest.  The solution is re-multiplied through the
    array afterwards as a transcription check.
    """
    n = len(t_rows)
    for k, row in enumerate(t_rows, start=1):
        if len(row) != k:
            raise ValueError("rows must form a lower-triangular array")
    diag_last = t_rows[n - 1][n - 1]
    theta: list[Fraction] = [Fraction(0)] * (n + 1)  # 1-based
    theta[n] = Fraction(1) if diag_last == 0 else 1 / diag_last
    for j in range(n - 1, 0, -1):
        upper = sum(
            (theta[k] * t_rows[k - 1][j - 1] for k in range(j + 1, n + 1)),
            Fraction(0),
        )
        diag = t_rows[j - 1][j - 1]
        if diag == 0:
            raise ArithmeticError(
                f"interior diagonal entry {j} vanishes; telescoping is blocked"
            )
        theta[j] = -upper / diag
    thetas = theta[1:]
    theta_next = thetas[n - 1] * diag_last
    for j in range(1, n):
        col = sum(
            (thetas[k - 1] * t_rows[k - 1][j - 1] for k in range(j, n + 1)),
            Fraction(0),
        )
        if col != 0:
            raise ArithmeticError(f"telescoping failed in column {j}")
    if all(t == 0 for t in thetas):
        raise ArithmeticError("degenerate solve produced the zero vector")
    return thetas, theta_next


def linear_form(n: int) -> LinearForm:
    """Exact telescoping combination ending at the single moment I_n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t_rows = [
        [tau(j + 1, 2 * k + 1) for j in range(1, k + 1)] for k in range(1, n + 1)
    ]
    thetas, theta_next = _solve_telescoping(t_rows)
    return LinearForm(n, tuple(thetas), theta_next)


def linear_form_residual(form: LinearForm, cfg: PrecisionConfig = DEFAULT_PRECISION) -> mp.mpf:
    """|sum_k theta_k zeta(2k+1)/pi^2k - theta_next I_n| numerically."""
    eval_dps = cfg.eval_digits
    with mp.workdps(eval_dps):
        acc = mp.mpf(0)
        for k in range(1, form.n + 1):
            th = form.thetas[k - 1]
            if th == 0:
                continue
            z = zeta_reference(2 * k + 1, cfg.target_digits + 10)
            acc += mp.mpf(th.numerator) / th.denominator * z / mp.pi ** (2 * k)
        rhs = mp.mpf(0)
        if form.theta_next != 0:
            tn = form.theta_next
            rhs = mp.mpf(tn.numerator) / tn.denominator * integral_In(form.n, cfg).value
        return abs(acc - rhs)


# -- the dimension criterion ---------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    n: int
    m: int
    tau_value: ExactRational
    is_zero: bool


@dataclass(frozen=True)
class ScanReport:
    """Top tau coefficients tau(n+1, 2n+1) over a range of n.

    Each nonzero entry certifies that I_n contributes a fresh direction
    to the rational span of the zeta ratios up to degree 2n+1; a zero
    would instead produce an exact rational relation among them.  A
    clean scan is evidence for the span growing without bound, not a
    proof.
    """

    rows: tuple[ScanRow, ...]

    @property
    def all_nonzero(self) -> bool:
        return all(not r.is_zero for r in self.rows)

    def zeros(self) -> list[int]:
        return [r.n for r in self.rows if r.is_zero]

    def summary(self) -> str:
        n_max = self.rows[-1].n if self.rows else 0
        if self.all_nonzero:
            return (
                f"all top coefficients nonzero for n = 1..{n_max}: every moment "
                "I_n in range adds a new direction (evidence of unbounded span, "
                "not a proof)"
            )
        zs = ", ".join(str(z) for z in self.zeros())
        return (
            f"zero top coefficient at n = {zs}: the corresponding I_n drops out "
            "and an exact rational relation among lower zeta ratios follows"
        )


def dimension_scan(n_max: int = 20) -> ScanReport:
    """Evaluate tau(n+1, 2n+1) exactly for n = 1..n_max.

    Every row is 1/(2^(2n+1) - 1), so a scan can never report a zero:
    q(n+1, 2n+1) = (-1)^n (the top Chebyshev-U coefficient) and
    w_{2n+1} = (-1)^(n+1) (2n)! cancel the shortcut's other factors
    exactly; :func:`~zetaodd.hyperbolic.tau_top` has the proof.  The scan
    therefore checks an identity through the full exact pipeline.  What
    the identity does not prove is that the span of the zeta ratios
    grows, since I_n itself might be a rational combination of the
    lower ratios; the summary line says so.
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
