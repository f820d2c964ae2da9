"""Tanh-sinh quadrature on (0, 1), the one integrator of this package.

:func:`integrate_01_fixed` refines a trapezoid sum over the tanh-sinh
change of variable by halving the step, and stops once an extrapolated
error estimate clears the target (see Stopping rule).  It sums integer
kernels on one node table of integer columns (:func:`_ts_level_columns`),
and it is built for the one integral type the zeta routes and the
moments need: a fixed-sign kernel with an inverse-square-root blowup at
u = 1 (u/asech(u) ~ 1/sqrt(2 (1-u))) and at most a logarithmic factor
at u = 0 ((1-u)/ln(1/u)).  Integrals over (0, infinity) come here too,
through q = e^-u: the exp-kernel route of :mod:`zetaodd.zeta` integrates
in q, reading w (1-q)/ln(1/q) from the node table.

It is not a general-purpose integrator.  Its kernels are fixed-sign, as
every kernel this package feeds in is: the stopping rule extrapolates
tanh-sinh's doubling of the correct digits per level, which an
oscillatory kernel does not show.  Mass beyond the node depth is the one
failure the error estimate cannot see, because the truncated mass is the
same at every level.

Stopping rule.  The error of level k is extrapolated from two level
differences, relative to 1 + |T_k| so that the rule does not depend on
the integral's magnitude: D1 = log10(|T_k - T_(k-1)| / (1 + |T_k|)) and
D2, the same for T_(k-2), stand for the errors of levels k-1 and k-2;
each level multiplies the correct digits by about D1/D2 (two for
tanh-sinh), so level k's error is about 10^(D1^2/D2).  The estimate for
level k >= 2 is 10^max(D1^2/D2, 2 D1, -eval_digits) (Bailey, Jeyabalan
and Li, "A comparison of three high-precision quadrature schemes",
Experimental Math. 14, 2005; mpmath's TanhSinh.estimate_error).  Level 1
uses the relative |T_1 - T_0|, as does any level with D2 >= 0; a zero
difference gives the floor 10^-eval_digits.  Level k is returned once
the estimate is at most 10^-(target + _STOP_HEADROOM).  The headroom
covers the extrapolation's optimism: it predicts the next difference,
not a bound, and without it the exp route at 15 digits misses its
10^-25 test bound.  Usually the level returned is the one before the
level a plain "two levels agree" test would stop at, so that finest
level, about half of all nodes, is never built.  The error reported
adds, to the estimate times 1 + |T_k|, the outermost summed term times
the step: the mass beyond the outermost node, which no level difference
sees and the node depth, not refinement, sets.

The screen.  Only the level that stops, or the last level, reads the
estimate and the error, so each level first screens its stop in float
(:func:`_certainly_above`): log10 of d1 and d2 from each mpf's mantissa
and exponent (:func:`_log10_float`, within 2^-51 (1 + |log10|), and
below 1e-308 too), D1^2/D2 > L cross-multiplied as D1^2 < L D2 (D2 < 0),
so nothing divides by a D2 near 0, with L = -(target + _STOP_HEADROOM).
The screen says "no stop" only when an exponent clears L by more than
its own float error and the exact path's rounding together, and then
the level goes on to the next with no mpmath log, power or error formed.
Every other level (level 1, a zero difference, d2 >= 1 or within the
float error of 1, the band around L, and the last level) takes the
exact rule above, so every stop, value and error is the one the rule
gives at every level.  In a cold sweep of odd m 3..41 at 30 digits this
cut mpmath's log10 calls from 286 to 80, two per integral.

Kernel contract.  Nodes come in pairs (u_minus, u_plus) with
u_minus + u_plus = 1, both computed from 2s = pi sinh t and
q = exp(-2s) without any 1 - x subtraction.  Each node member carries
three integer columns (u, Fe, Fa) in units of 2^-P,
P = mp.prec + _FIXED_GUARD_BITS: u, Fe = w (1-u)/ln(1/u) and
Fa = w u/asech(u), w the node weight, all in [0, 1].  They are what only
the node generator can make; a kernel forms any plain integer function
of u, such as 1/(1+u) or u^2, itself.  The weight and the
transcendentals ln(1/u) and asech(u) enter only through Fe and Fa,
computed from q and 2s, so the deep nodes whose u_plus truncates to
exactly 1 still carry their nonzero weighted columns.  The u column is
absolute: below 2^-P it truncates to 0, so a kernel factor singular at
u = 0, such as u^(-1/2), is only as accurate as those members' weighted
columns are small.  Each column is within one unit of 2^-P of its exact
value (:func:`_ts_level_columns` derives the bound); the tests check
them against textbook formulas in s = (pi/2) sinh t, 20 digits higher.
The centre node u = 1/2 (t = 0) is outside the table but comes from the
same generator, :func:`_pair_columns` at 2s = 0, where the pair's two
members coincide, so it meets the same bounds; it is built once per
precision.  Past q, one series makes every node transcendental:
atanh(v)/v (:func:`_atanh_ratio`), summed directly on the outer nodes
and behind a fixed-point logarithm with two table reductions
(:func:`_log_fixed`) on the inner ones; q itself is a fixed-point exp
(:func:`_exp_neg_fixed`).  No mpmath logarithm, and no mpf, runs per
node.

Integer level sums.  Every production integral sums its levels in
integers, where mpf overhead (a power, a division, conversions, the adds
of the sum) would cost more than the polynomial itself; the level total
and the outermost term become mpf once per level.  A kernel has two
methods: ``level(table, prec)``, its total over every member of one
level's table, and ``member(columns, prec)``, its term at one member,
which serves the centre and the outermost pair.  A :class:`TermKernel`
(the moments I_n, :func:`integral_In`) turns one member's columns into
one integer term by integer products and right shifts.  A
:class:`PowerSumKernel` (the zeta routes) is a polynomial
base * sum_i c_i point^i, with (base, point) read from the member's
columns by its reading.  Its level total is sum_i c_i S_i,
exact in integers, over the power sums S_i = sum over the level's
members of base * point^i, each power the one before times the point,
rounded.  The sums sit on the node table, one list per reading, and grow
to the largest degree asked for: a later degree, or the other route's
call at the same degree, reuses every power already built, and no value
depends on which degrees ran before.  Each right shift truncates by less
than one unit (a rounded power by half a unit), so a term errs by at
most 2^-P times the kernel's count of truncations and column units, each
scaled by how much the rest of the term can magnify it
(:func:`zetaodd.zeta._degree_setup` bounds this for the routes,
:func:`integral_In` for the moments).  2^20 units make one unit in the
last place of a term near 1 at the working precision.

One precision, separate depth.  Arithmetic runs at
PrecisionConfig.eval_digits: working_digits rounded up to a multiple of
10, so nearby working precisions share node tables.  The node depth is
set apart from it: the outermost nodes reach 1 - u ~ 10^-(2 target + 7)
(target floored at 8, see _node_depth), because the truncated mass of a
1/sqrt(1 - u) singularity is the square root of the gap (about
10^-(target + 3.5) there).  A level sums every node it holds: toward the
outermost pair the terms of such a kernel fall no lower than that mass,
far above a unit of 2^-P.  Deep nodes cost less, not more: a node's q
needs only about P - log2(1/q)/2 bits of relative precision, since its
columns shrink like sqrt(q).  The node table is keyed by (eval
precision, depth, level) and holds at most _NODE_TABLES_KEPT levels at
once, each with its power sums, which are evicted with it, so a session
that sweeps precisions keeps bounded state.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
from mpmath.libmp import dps_to_prec, from_man_exp, ln2_fixed, mpf_exp, pi_fixed, to_fixed

__all__ = [
    "PrecisionConfig",
    "DEFAULT_PRECISION",
    "QuadratureResult",
    "NonConvergenceError",
    "PowerSumKernel",
    "TermKernel",
    "integrate_01_fixed",
    "integral_In",
    "integral_In_crosscheck",
]

_STOP_HEADROOM = 10   # the error estimate must clear the target by 10^-10
_MAX_LEVELS = 12      # step-halving refinements before NonConvergenceError
# node tables kept, each with its power sums; a zeta_report sweep of m <= 41
# at 30 digits builds 13, at two eval precisions
_NODE_TABLES_KEPT = 32
# integer columns carry this many bits past the working precision: 2^20
# units make one unit in the last place of a term near 1,
# zeta._degree_setup holds its bound to g(m) as if counted in 2^-p, and
# integral_In's bound is 2^14 units.  P, and so every output, depends on it
_FIXED_GUARD_BITS = 20
_COLUMN_GUARD_BITS = 32  # node arithmetic runs this far past the columns' bits
_SERIES_MAX_TERMS = 48  # node logs by series once these end within about this many terms
_LOG2_E = 1 / math.log(2)
_LOG10_2 = math.log10(2)
# the stop screen's bounds (_certainly_above), per unit of 1 + |value|:
# a float log10's distance from mpmath's, four times _log10_float's 2^-51,
# and the margin by which an exponent must clear the stop
_LOG10_SLACK = 2.0**-49
_EXPONENT_SLACK = 2.0**-40


@dataclass(frozen=True)
class PrecisionConfig:
    """Requested accuracy and the arithmetic budget used to reach it.

    ``working_digits`` must exceed ``target_digits`` by at least 10
    guard digits; the integrator evaluates at :attr:`eval_digits`,
    derived from it.
    """

    target_digits: int = 30
    working_digits: int = 50

    def __post_init__(self) -> None:
        if self.target_digits < 1:
            raise ValueError(f"target_digits must be >= 1, got {self.target_digits}")
        if self.working_digits < self.target_digits + 10:
            raise ValueError(
                "working_digits must be >= target_digits + 10, got "
                f"{self.working_digits} for target {self.target_digits}"
            )

    @property
    def eval_digits(self) -> int:
        """The one precision the integrator evaluates at: working_digits
        rounded up to a multiple of 10, so that nearby working precisions
        share one node table."""
        return -(-self.working_digits // 10) * 10


DEFAULT_PRECISION = PrecisionConfig()


@dataclass(frozen=True)
class QuadratureResult:
    """Converged integral value with its refinement diagnostics.

    ``error_estimate`` is the extrapolated discretization error of
    ``value`` from the module docstring's stopping rule plus the
    outermost summed term times the step, which covers the mass beyond
    the outermost node ("One precision, separate depth" in the module
    docstring).  ``nodes_used`` is 1 + 2 times the node pairs of every
    level run: the centre and both members of each pair.
    """

    value: mp.mpf
    error_estimate: mp.mpf
    nodes_used: int
    levels: int


class NonConvergenceError(ArithmeticError):
    """Refinement exhausted ``_MAX_LEVELS`` levels before the error
    estimate cleared the target.

    Carries the last level sum as ``best_value`` and its
    ``error_estimate``, formed as in :class:`QuadratureResult`, so that
    a caller who wants to inspect the failure can; the usual cause is an
    integrand outside the contract (oscillation, a stronger singularity,
    a heavy tail).
    """

    def __init__(self, message: str, best_value=None, error_estimate=None):
        super().__init__(message)
        self.best_value = best_value
        self.error_estimate = error_estimate


# -- node tables ---------------------------------------------------------
#
# One table, keyed by (eval_dps, depth, level): the integer columns the
# level sums read (_ts_level_columns).  Level 0 holds t = 1 .. t_max step 1
# (the t = 0 centre node is built by the integrator); level k >= 1 holds
# the odd multiples of 2^-k in (0, t_max].  All node data is derived from
# q = exp(-2s) and 2s itself, so no subtraction ever forms the boundary gap.

def _node_depth(cfg: PrecisionConfig) -> int:
    """Digits of the smallest boundary gap 1 - u the nodes reach: 2 target
    + 7, with the target floored at 8.  Below that floor the outermost
    summed term of a 1/sqrt(1 - u) endpoint moves with each level's last
    node by more than the stop test allows, and refinement stalls."""
    return 2 * max(cfg.target_digits, 8) + 7


def _fixed_bits(eval_dps: int) -> int:
    """P, the fractional bits of the integer columns at eval_dps: the
    working precision plus _FIXED_GUARD_BITS."""
    return dps_to_prec(eval_dps) + _FIXED_GUARD_BITS


def _power_fixed(x: int, n: int, prec: int) -> int:
    """x^n for n >= 0, x and the result integers in units of 2^-prec, by
    binary powering: each of its at most 2 log2(n) products is truncated
    back to prec bits by one right shift."""
    power = 1 << prec
    while True:
        if n & 1:
            power = power * x >> prec
        n >>= 1
        if not n:
            return power
        x = x * x >> prec


@lru_cache(maxsize=_NODE_TABLES_KEPT)
def _t_max(eval_dps: int, depth: int) -> mp.mpf:
    """t_max = asinh(depth ln(10) / pi) at eval_dps, where q = 10^-depth:
    the last node of every level of one (eval_dps, depth) table."""
    with mp.workdps(eval_dps):
        return mp.asinh(depth * mp.log(10) / mp.pi)


def _level_indices(eval_dps: int, depth: int, level: int) -> range:
    """The k of the nodes t = k 2^-level new at this level, up to
    :func:`_t_max`."""
    with mp.workdps(eval_dps):
        k_max = int(mp.floor(_t_max(eval_dps, depth) * 2**level))
    return range(1, k_max + 1, 1 if level == 0 else 2)


def _atanh_ratio(w: int, prec: int) -> int:
    """atanh(v)/v = sum_k w^k/(2k+1) for 0 <= w = v^2 <= 1/3, w and the
    result integers in units of 2^-prec: the one series behind every node
    logarithm.  Even and odd k take two accumulators over one power of
    w^2, so a product serves two terms, and the odd sum is times w once at
    the end; the loop ends when the power truncates to zero.  Over its N
    passes the power stays within 2N units below w^(2i) (w^2 and each
    product truncate once), each quotient within 1.5, and the dropped
    terms sum below two units, so the result lies below its value by
    less than 3N + 3 units."""
    w2 = w * w >> prec
    even = odd = 0
    power, k = 1 << prec, 1
    while power:
        even += power // k
        odd += power // (k + 2)
        power = power * w2 >> prec
        k += 4
    return even + (odd * w >> prec)


def _two_atanh(v: int, prec: int) -> int:
    """2 atanh(v) = 2 v atanh(v)/v for 0 <= v <= 1/2, in units of 2^-prec,
    by :func:`_atanh_ratio`."""
    return v * _atanh_ratio(v * v >> prec, prec) >> prec - 1


@lru_cache(maxsize=4)
def _log_tables(prec: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """ln(j/16) for j = 16 .. 32 and ln(1 + k/256) for k = 0 .. 15, in
    units of 2^-prec, by :func:`_two_atanh`:
    ln((j+1)/16) = ln(j/16) + 2 atanh(1/(2j+1)) from ln(16/16) = 0, and
    ln(1 + k/256) = 2 atanh(k/(512+k)).  While prec < 2^12 + 2^7, each
    2 atanh lies below its value by less than 2^6 units (two from its
    truncated argument, one from the product, and the series' 3N + 3,
    N < prec/20 + 2, times 2v <= 2/33), so every entry, ln 2 = ln(32/16)
    the sum of 16, lies below its value by less than 2^10 units."""
    one = 1 << prec
    sixteenths = [0]
    for j in range(16, 32):
        sixteenths.append(sixteenths[-1] + _two_atanh(one // (2 * j + 1), prec))
    steps = tuple(_two_atanh((k << prec) // (512 + k), prec) for k in range(16))
    return tuple(sixteenths), steps


def _log_fixed(x: int, prec: int) -> int:
    """ln(x) for x >= 1, x and the result integers in units of 2^-prec,
    below ln(x) by less than 1 + 2^-5 units while prec < 2^12, with no
    mpmath logarithm.

    Argument reduction by two tables (Brent and Zimmermann, Modern
    Computer Arithmetic, 2010, ch. 4): x = 2^e (j/16) r with
    16 <= j < 32 x's leading five bits and 1 <= r < 1 + 1/j, then
    r = (1 + k/256) r' with k = floor(256 (r - 1)) < 16 and
    1 <= r' < 1 + 1/256, so that ln x = e ln 2 + ln(j/16) + ln(1 + k/256)
    + 2 atanh(v) with v = (r' - 1)/(r' + 1) < 2^-9, one division from x.
    The series for 2 atanh(v) (:func:`_atanh_ratio`) gains 36 bits per
    product.

    Tables.  The three entries come from :func:`_log_tables` at
    T >= prec + 40 bits, a multiple of 64, so that nearby precisions
    share one table: a process builds one or two per eval precision of
    the node table, 0.2 to 2.4 ms each from 30 to 300 digits, and mpmath's
    log cache stays untouched.

    Error.  The entries lie below their values by less than 2^10 units of
    2^-T each (e <= 1 on the node table; e ln 2 adds e such errors), less
    than 2^-28 units of 2^-prec together.  The tail runs at
    p = prec + 8 bits: the truncated v moves 2 atanh(v) by less than
    2/(1 - v^2) units of 2^-p, the product by one more, and the series'
    3N + 3 units, N < p/36 + 2, are times 2v < 2^-8.  With the tables'
    sum truncated to p bits, these stay below 5 units of 2^-p, and the
    last truncation to prec bits puts the result below ln x by less than
    1 + 2^-5 units; x = 1 gives exactly 0."""
    n = x.bit_length() - 5
    j = x >> n
    k = ((x - (j << n)) << 8 >> n) // j
    table_prec = -(-(prec + 40) // 64) * 64
    sixteenths, steps = _log_tables(table_prec)
    head = (n + 4 - prec) * sixteenths[16] + sixteenths[j - 16] + steps[k]
    tail_prec = prec + 8
    top, bottom = 256 * x, (256 + k) * j << n
    v = (top - bottom << tail_prec) // (top + bottom)
    return (head >> table_prec - tail_prec) + _two_atanh(v, tail_prec) >> 8


def _exp_neg_fixed(x: int, wp: int, prec: int, bits: int) -> int:
    """exp(-x) for x = X 2^-wp >= 0, in units of 2^-prec, from a
    computation to ``bits`` > 0 bits relative, with no mpf.

    x = n ln 2 + r with 0 <= r < ln 2, at R = bits + log2(x) + 8 bits: the
    truncations of x and of ln 2 (mpmath.libmp's ln2_fixed) move r by
    less than 2^(-bits-7).  Then exp(-r) = exp(-y)^(2^K) with y = r/2^K
    and K = isqrt(R)/2, at S = R + K + 16 bits: the series in y < 2^-K,
    summed as even and odd parts in two accumulators over y^2, ends
    within T < S/K + 1 terms, each within 2.1 units of 2^-S, and each of
    the K squarings truncates once and doubles the relative error before
    it.  So exp(-r) >= 1/2 is within 2^(K-S) (4.2 T + 6) < 2^(-R-6)
    relative while T < 240, which holds for R < 2^13, and the result,
    2^-n exp(-r), within 2^(-bits-6) relative before its last shift to
    2^-prec."""
    mag = max(x.bit_length() - wp, 0)
    rp = bits + mag + 8
    t = x >> wp - rp if wp >= rp else x << rp - wp
    n, r = divmod(t, ln2_fixed(rp))
    halvings = math.isqrt(rp) // 2
    sp = rp + halvings + 16
    r <<= 16  # r at rp bits, read at sp = rp + K + 16 bits, is y = r/2^K
    one = 1 << sp
    even = odd = one
    term = r2 = r * r >> sp
    k = 2
    while term:
        term //= k
        even += term
        term //= k + 1
        odd += term
        term = term * r2 >> sp
        k += 2
    e = even - (odd * r >> sp)
    for _ in range(halvings):
        e = e * e >> sp
    shift = sp + n - prec
    return e >> shift if shift >= 0 else e << -shift


def _series_ratios(q: int, root: int, sinh_a: int, prec: int) -> tuple[int, int, int]:
    """log1p(q)/q, acosh(1+q)/sqrt(q (2+q)) and ln(1 + q + root) from q
    and root = sqrt(1 + 2q), all in units of 2^-prec, by the series of
    :func:`_atanh_ratio` (``sinh_a`` = sqrt(q (2+q)) is unused here).
    With z = q/(2+q): log1p(q) = 2 atanh(z), so log1p(q)/q is 2/(2+q)
    times atanh(z)/z; acosh(1+q) = 2 atanh(sqrt z) and
    sqrt(z)/sqrt(q (2+q)) = 1/(2+q), so acosh(1+q)/sqrt(q (2+q)) is 2/(2+q)
    times atanh(sqrt z)/sqrt z, the same series in z instead of z^2; and
    1 + q + root = 2 ((1 + root)/2)^2, so ln(1 + q + root) = ln 2 +
    4 atanh(v), v = (root - 1)/(root + 3)."""
    one = 1 << prec
    two = one << 1
    z = (q << prec) // (two + q)
    v = (root - one << prec) // (root + 3 * one)
    return (
        (_atanh_ratio(z * z >> prec, prec) << prec + 1) // (two + q),
        (_atanh_ratio(z, prec) << prec + 1) // (two + q),
        ln2_fixed(prec) + (_two_atanh(v, prec) << 1),
    )


def _log_ratios(q: int, root: int, sinh_a: int, prec: int) -> tuple[int, int, int]:
    """:func:`_series_ratios` from three fixed-point logarithms
    (:func:`_log_fixed`): of 1 + q, formed exactly, of
    1 + q + sinh_a = exp(acosh(1+q)), sinh_a = sqrt(q (2+q)), and of
    1 + q + root."""
    one = 1 << prec
    return (
        (_log_fixed(one + q, prec) << prec) // q,
        (_log_fixed(one + q + sinh_a, prec) << prec) // sinh_a,
        _log_fixed(one + q + root, prec),
    )


def _pair_columns(two_s: int, cosh_pi: int, wp: int, prec: int) -> tuple:
    """One node pair's (minus, plus) integer columns at ``prec`` bits from
    2s and pi cosh t at ``wp`` bits; see :func:`_ts_level_columns`."""
    log2_recip = int(two_s / (1 << wp) * _LOG2_E)  # log2(1/q), rounded down
    # W + L/2 + log2 C bits: Fa ~ C sqrt(q/2) divides by sqrt(q)
    lift = log2_recip // 2 + 1 + cosh_pi.bit_length() - wp
    node_prec = wp + lift
    # q to 8 bits below a unit of node_prec: node_prec - L bits relative
    exp_prec = node_prec - log2_recip + 8
    if exp_prec <= 0:
        raise ValueError(
            f"tanh-sinh node at u ~ 10^-{log2_recip * math.log10(2):.0f} is deeper "
            f"than {prec}-bit node columns resolve"
        )
    q = _exp_neg_fixed(two_s, wp, node_prec, exp_prec)
    two_s <<= lift
    one = 1 << node_prec
    u_plus = (one << node_prec) // (one + q)
    b = cosh_pi << lift
    for _ in range(3):
        b = b * u_plus >> node_prec  # pi cosh t / (1+q)^3
    w_plus = b * q >> node_prec  # w u_plus
    w_minus = w_plus * q >> node_prec  # w u_minus
    root = math.isqrt((one + 2 * q) << node_prec)
    sinh_a = math.isqrt(q * (2 * one + q))  # sqrt((1+q)^2 - 1) = sinh(asech(u_plus))
    ratios = _series_ratios if _SERIES_MAX_TERMS * log2_recip >= node_prec else _log_ratios
    log_ratio, acosh_ratio, rest = ratios(q, root, sinh_a, node_prec)
    log_minus = two_s + (q * log_ratio >> node_prec)
    shift = node_prec - prec
    u_minus = q * u_plus >> node_prec + shift
    minus = (
        u_minus,
        (w_plus << node_prec) // log_minus >> shift,
        (w_minus << node_prec) // (two_s + rest) >> shift,
    )
    plus = (
        (1 << prec) - u_minus,
        (w_plus << node_prec) // log_ratio >> shift,
        (w_plus << 2 * node_prec) // (sinh_a * acosh_ratio) >> shift,
    )
    return minus, plus


class _NodeLevel(tuple):
    """One level's node pairs, a tuple of (minus, plus), carrying in
    ``power_sums`` the :class:`_PowerSums` read from them, keyed by
    reading: the sums live, and are evicted, with their table."""

    def __new__(cls, pairs):
        table = super().__new__(cls, pairs)
        table.power_sums = {}
        return table


@lru_cache(maxsize=_NODE_TABLES_KEPT)
def _ts_level_columns(eval_dps: int, depth: int, level: int) -> _NodeLevel:
    """The node table: the tanh-sinh nodes new at this level, as pairs
    (minus, plus) of three integer columns (u, Fe, Fa) each at
    P = :func:`_fixed_bits`(eval_dps) fractional bits, computed in
    integers with no mpf kept.

    With 2s = pi sinh t and q = exp(-2s): u_plus = 1/(1+q),
    u_minus = q u_plus and w = pi cosh(t) q u_plus^2, so that
    u_minus ~ 10^-depth at the outermost node.  The transcendentals follow
    from q and 2s without a cancelling subtraction:
    ln(1/u_plus) = log1p(q), ln(1/u_minus) = 2s + log1p(q),
    asech(u_plus) = acosh(1+q) and
    asech(u_minus) = 2s + ln(1 + q + sqrt(1 + 2q)).

    Per level, e^t comes from one exp and then one product per node, at
    W = P + _COLUMN_GUARD_BITS + bits(N) for the level's N nodes; 2s and
    C = pi cosh t follow in fixed point.  Per node, q = exp(-2s) is one
    fixed-point exp (:func:`_exp_neg_fixed`) at the node's own relative
    precision, held in fixed point at W + L/2 + log2 C bits with
    L = log2(1/q), since the largest column, Fa ~ C sqrt(q/2) at the plus
    member, divides by sqrt(q).  The rest is integer arithmetic at that
    precision, with two square roots: sqrt(1 + 2q) for the minus member
    and sqrt(q (2+q)) = sinh(asech(u_plus)) for the plus one, whose Fa is
    w u over acosh(1+q) = sqrt(q (2+q)) times its ratio.  The plus
    member's u column is the exact complement 2^P - u_minus.
    log1p(q)/q, acosh(1+q)/sqrt(q (2+q)) and asech(u_minus) - 2s come
    from the atanh series once those end within about _SERIES_MAX_TERMS
    terms (:func:`_series_ratios`), and from three fixed-point logs on
    the inner nodes (:func:`_log_ratios`).  At 420 to 700 bits the two
    cost the same near 52 terms, and the series gain as the precision
    rises.

    Error bound, in units of 2^-P.  Each of the N steps of e^t adds at
    most three units of 2^-W relative (the factor's, the product's, the
    start's), so e^t is within 3N 2^-W < 2^(-30-P) relative, and 2s
    within C 2^(-29-P) absolute.  q inherits that relatively, plus one
    unit of the node precision (the exp errs by 2^-14 of one).  Through
    the relative error, the columns move by at most C^2 q or C^2 sqrt(q)
    times it, both below 10 on every node; through the unit, by at most
    C/sqrt(q) units of the node precision, which its extra L/2 + log2 C
    bits cancel.  With fewer than 3n + 3 units of the node precision per
    atanh series of n products (n about _SERIES_MAX_TERMS/2 at most) and
    fewer than 1 + 2^-5 per log (:func:`_log_fixed`), the arithmetic errs
    by less than 2^-16 units before the last truncation to P bits.
    Hence u_minus, Fe and Fa are within one unit (and 2^-16) of their
    exact values, and u_plus too (it lies above, u_minus below).  The
    tests compare every column with textbook formulas in
    s = (pi/2) sinh t, 20 digits higher.
    """
    prec = _fixed_bits(eval_dps)
    indices = _level_indices(eval_dps, depth, level)
    wp = prec + _COLUMN_GUARD_BITS + len(indices).bit_length()
    e_t = to_fixed(mpf_exp(from_man_exp(indices[0], -level), wp), wp)
    step = to_fixed(mpf_exp(from_man_exp(indices.step, -level), wp), wp)
    pi = pi_fixed(wp)
    out = []
    for _ in indices:
        e_inv = (1 << 2 * wp) // e_t
        two_s = pi * (e_t - e_inv) >> wp + 1
        out.append(_pair_columns(two_s, pi * (e_t + e_inv) >> wp + 1, wp, prec))
        e_t = e_t * step >> wp
    return _NodeLevel(out)


@lru_cache(maxsize=4)
def _centre_columns(prec: int) -> tuple[int, ...]:
    """The centre node's columns, t = 0: 2s = 0, pi cosh t = pi, and the
    pair's two members coincide."""
    wp = prec + _COLUMN_GUARD_BITS
    return _pair_columns(0, pi_fixed(wp), wp, prec)[0]


def _next_powers(powers: list, points: list, prec: int) -> list:
    """Each member's next power, power * point, rounded to prec bits."""
    half = 1 << prec - 1
    return [p * x + half >> prec for p, x in zip(powers, points)]


def _member_powers(base: int, point: int, degree: int, prec: int) -> list[int]:
    """base * point^i for i = 0..degree at one member, each power from the
    one before and rounded as :func:`_next_powers` rounds it."""
    half = 1 << prec - 1
    powers = [base]
    for _ in range(degree):
        powers.append(powers[-1] * point + half >> prec)
    return powers


class _PowerSums:
    """S_i = sum over a level's members of base * point^i, with
    (base, point) = reading(columns, prec) per member, grown on demand:
    ``powers`` holds each member's highest power so far, so a larger
    degree extends the list and reuses every power already built."""

    def __init__(self, table: _NodeLevel, reading, prec: int):
        read = [reading(columns, prec) for pair in table for columns in pair]
        self.points = [point for _, point in read]
        self.powers = [base for base, _ in read]
        self.sums = [sum(self.powers)]

    def up_to(self, degree: int, prec: int) -> list[int]:
        while len(self.sums) <= degree:
            self.powers = _next_powers(self.powers, self.points, prec)
            self.sums.append(sum(self.powers))
        return self.sums


@dataclass(frozen=True)
class PowerSumKernel:
    """The polynomial kernel base * sum_i coeffs[i] point^i, lowest power
    first, with (base, point) = ``reading(columns, prec)`` from one node
    member's integer columns, both in units of 2^-prec and point <= 1 up
    to a few units.  :func:`integrate_01_fixed` takes a level's total as
    sum_i coeffs[i] S_i over that table's power sums (:class:`_PowerSums`,
    shared by every kernel with the same reading), exact in integers.
    :meth:`member` rounds each power as the sums do, so its terms over
    the members of a table add up to :meth:`level` exactly."""

    reading: Callable[[tuple, int], tuple[int, int]]
    coeffs: tuple[int, ...]

    def member(self, columns: tuple, prec: int) -> int:
        """The kernel at one member, from that member's powers alone."""
        base, point = self.reading(columns, prec)
        powers = _member_powers(base, point, len(self.coeffs) - 1, prec)
        return sum(c * p for c, p in zip(self.coeffs, powers))

    def level(self, table: _NodeLevel, prec: int) -> int:
        """The kernel summed over every member of ``table``."""
        sums = table.power_sums.get(self.reading)
        if sums is None:
            sums = table.power_sums[self.reading] = _PowerSums(table, self.reading, prec)
        return sum(c * s for c, s in zip(self.coeffs, sums.up_to(len(self.coeffs) - 1, prec)))


@dataclass(frozen=True)
class TermKernel:
    """A kernel given one member at a time: ``term(columns, prec)`` is w
    times the integrand at one node member, an integer in units of
    2^-prec, from that member's integer columns at prec fractional bits."""

    term: Callable[[tuple, int], int]

    def member(self, columns: tuple, prec: int) -> int:
        """The kernel at one member."""
        return self.term(columns, prec)

    def level(self, table: _NodeLevel, prec: int) -> int:
        """The kernel summed over every member of ``table``."""
        return sum(self.term(columns, prec) for pair in table for columns in pair)


def _log10_float(x: mp.mpf) -> float:
    """log10(x) for a positive mpf x, in float from its mantissa and
    exponent, so that it holds below 1e-308 too, with no mpmath
    transcendental.

    x = f 2^n with f in [1/2, 1) and n = exp + bc; f's leading 53 bits
    give f' <= f, exact in float, and the result is
    log10(f') + n log10(2).  Its error against log10(x), with
    |n| <= 3.33 |log10 x| + 1 since |log10 f| < 0.302: dropping f's lower
    bits moves log10 f by less than 2^-52/ln 10 < 2^-53; math.log10 of
    f' errs by at most four units in the last place of a result below
    0.302, 2^-52; the rounded log10(2) by 2^-55 relative and the product
    by 2^-54, |n| 3 2^-55 together; the final sum by 2^-53 of the
    result.  In all, less than 2^-51 (1 + |log10 x|)."""
    _, man, exp, bc = x._mpf_
    top = man >> bc - 53 if bc > 53 else man << 53 - bc
    return math.log10(top * 2.0**-53) + (exp + bc) * _LOG10_2


def _certainly_above(d1: mp.mpf, d2: mp.mpf, stop_exp: int) -> bool:
    """Whether the stopping rule's estimate for the nonzero relative
    level differences d1 and d2 < 1 certainly exceeds 10^stop_exp, as
    :func:`_error_estimate` forms both at eval precision (at least 70
    bits, since eval_digits >= 20): decided in float, with no mpmath
    transcendental, and False whenever it is not certain.

    Let D1, D2 be mpmath's log10 of d1, d2 at eval precision and F1, F2
    the floats of :func:`_log10_float`.  |F_i - D_i| <= delta_i =
    _LOG10_SLACK (1 + |F_i|): 2^-51 (1 + |log10|) from the float, a few
    units of 2^-70 of D_i from mpmath, and the rounding of the float
    operations below, a few units of 2^-53 each, fit in four times
    2^-51.  With L' = stop_exp + eta, eta = _EXPONENT_SLACK
    (1 + |stop_exp|), the estimate's exponent
    max(D1^2/D2, 2 D1, -eval_digits) exceeds L' if 2 (F1 - delta_1) > L',
    or if F2 + delta_2 < 0 and (|F1| + delta_1)^2 < L' (F2 + delta_2):
    then D2 <= F2 + delta_2 < 0 and D1^2 < L' D2, which is
    D1^2/D2 > L' with no division by a D2 near 0.  The factor
    1 + 2^-45 on the left covers the float rounding of both sides.  A d2
    whose F2 is within delta_2 of 0, as for d2 just below 1, is left to
    the exact path.  The floor -eval_digits never exceeds stop_exp
    (eval_digits >= target + 10), so it never decides.

    eta covers the exact path's own rounding.  Its exponent, formed from
    D1 and D2 with at most three roundings at 70 bits or more, is within
    2^-66 of the true one relative, so within 2^-66 |stop_exp| while it
    lies between stop_exp and 0 (D1^2/D2 <= 0); its power 10^x and the
    tolerance 10^stop_exp are each within a unit of 2^-70, so an exponent
    above stop_exp + 2^-66 (1 + |stop_exp|) gives an estimate above the
    tolerance.  eta = 2^-40 (1 + |stop_exp|) is far above that.
    """
    F1 = _log10_float(d1)
    F2 = _log10_float(d2)
    delta1 = _LOG10_SLACK * (1 + abs(F1))
    bound = stop_exp + _EXPONENT_SLACK * (1 - stop_exp)
    if 2 * (F1 - delta1) > bound:
        return True
    top2 = F2 + _LOG10_SLACK * (1 + abs(F2))
    if top2 >= 0:
        return False
    return (abs(F1) + delta1) ** 2 * (1 + 2.0**-45) < bound * top2


def _error_estimate(d1: mp.mpf, d2: mp.mpf | None, eval_dps: int) -> mp.mpf:
    """Extrapolated error of level k relative to 1 + |T_k|, from its
    relative differences d1 = |T_k - T_(k-1)| / (1 + |T_k|) and d2, the
    same for T_(k-2), which is None at level 1; see the module
    docstring."""
    if d1 == 0 or d2 == 0:
        return mp.mpf(10) ** -eval_dps
    if d2 is None or d2 >= 1:
        return d1
    D1 = mp.log10(d1)
    D2 = mp.log10(d2)
    return mp.mpf(10) ** max(D1 * D1 / D2, 2 * D1, -eval_dps)


def integrate_01_fixed(kernel, cfg: PrecisionConfig = DEFAULT_PRECISION) -> QuadratureResult:
    """Tanh-sinh integral over (0, 1) of an integer kernel, the level
    sums taken in integers ("Integer level sums" in the module
    docstring): halve the step until the stopping rule holds.

    ``kernel`` works on node members' integer columns (u,
    w (1-u)/ln(1/u), w u/asech(u)) at prec fractional bits, with results
    in units of 2^-prec: ``kernel.level(table, prec)`` returns its total
    over every member of one level's node table, and
    ``kernel.member(columns, prec)`` its term at one member, which serves
    the centre and the table's outermost pair.
    :class:`TermKernel` and :class:`PowerSumKernel` are the two kinds.
    Runs at ``cfg.eval_digits`` with node depth :func:`_node_depth`
    (cfg).  A level that :func:`_certainly_above` shows cannot stop, and
    is not the last, goes on to the next with no estimate or error
    formed; every other level takes the exact rule.
    """
    eval_dps = cfg.eval_digits
    depth = _node_depth(cfg)
    prec = _fixed_bits(eval_dps)
    last = _MAX_LEVELS - 1
    with mp.workdps(eval_dps):
        stop_exp = -(cfg.target_digits + _STOP_HEADROOM)
        tol = mp.mpf(10) ** stop_exp
        sums = []  # the last three level sums, oldest first
        err = mp.inf
        used = 0
        for level in range(_MAX_LEVELS):
            table = _ts_level_columns(eval_dps, depth, level)
            used += 2 * len(table)
            new = mp.ldexp(kernel.level(table, prec), -prec)
            h = mp.mpf(1) / 2**level
            if level == 0:
                centre = kernel.member(_centre_columns(prec), prec)
                sums.append(h * (mp.ldexp(centre, -prec) + new))
                used += 1
                continue
            current = sums[-1] / 2 + h * new
            sums = sums[-2:] + [current]
            scale = 1 + abs(current)
            d1 = abs(current - sums[-2]) / scale
            d2 = abs(current - sums[-3]) / scale if level >= 2 else None
            if level < last and d1 and d2 and d2 < 1 and _certainly_above(d1, d2, stop_exp):
                continue
            relative = _error_estimate(d1, d2, eval_dps)
            outermost = sum(kernel.member(columns, prec) for columns in table[-1])
            err = relative * scale + h * abs(mp.ldexp(outermost, -prec))
            if relative <= tol:
                return QuadratureResult(current, err, used, level + 1)
        raise NonConvergenceError(
            f"tanh-sinh on (0,1): no convergence to {cfg.target_digits} digits "
            f"within {_MAX_LEVELS} levels (error estimate {mp.nstr(err, 3)})",
            best_value=sums[-1],
            error_estimate=err,
        )


# -- the inverse-asech moment integrals ----------------------------------

def integral_In(n: int, cfg: PrecisionConfig = DEFAULT_PRECISION) -> QuadratureResult:
    """I_n = integral of u^(2n-1) / asech(u) over (0, 1).

    The integrand vanishes at u = 0 (for n >= 1) and blows up like
    (2 (1-u))^(-1/2) at u = 1, the exact singularity class the
    tanh-sinh integrator is tuned for.  It is the asech route's integral
    with the polynomial x^(n-1), summed in integers by
    :func:`integrate_01_fixed` as a :class:`TermKernel` on the node
    table's columns u and Fa = w u/asech(u): each term is Fa X^(n-1) with
    X = u^2 formed from the integer u, the power by binary powering
    (:func:`_power_fixed`), at most 2 log2(n) products where a
    :class:`PowerSumKernel` would form all n - 1 powers.

    u and Fa are within one unit of 2^-P (:func:`_ts_level_columns`), so
    X = u^2, truncated once, within three; the power magnifies X's error
    by at most n - 1, so with the power's 2 log2(n) truncations and the
    product's one a term errs by at most 3n + 2 log2(n) + 2 units, and a
    level sum, h times its terms over t <= t_max (below 8 for targets
    under 1000), by at most eight times that: under 2^14 units for
    n <= 400, against I_n ~ sqrt(pi/(4n)) >= 0.044, so well inside the
    20 guard bits.
    Moments are not memoized: every call integrates, and the zeta routes
    take none.
    """
    if n < 1:
        raise ValueError(f"moment index n must be >= 1, got {n}")

    def term(columns, prec):
        u, _, fa = columns
        return fa * _power_fixed(u * u >> prec, n - 1, prec) >> prec

    return integrate_01_fixed(TermKernel(term), cfg)


def integral_In_crosscheck(n: int, dps: int = 40) -> tuple[mp.mpf, mp.mpf]:
    """I_n by an unrelated scheme: substitute u = 1 - t^2 and apply
    adaptive Gauss-Legendre.  The substitution removes the singularity
    (the integrand becomes smooth at t = 0) and the asech argument is
    rebuilt from d = t^2 without cancellation.  Returns (value, error
    estimate from the library).
    """
    if n < 1:
        raise ValueError(f"moment index n must be >= 1, got {n}")
    e = 2 * n - 1
    with mp.workdps(dps):
        def g(t):
            d = t * t
            a = mp.log1p((mp.sqrt(d * (2 - d)) + d) / (1 - d))
            return 2 * t * (1 - d) ** e / a

        value, err = mp.quad(g, [0, 1], error=True)
        return value, err
