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

Kernel contract.  Nodes come in pairs (u_minus, u_plus) with
u_minus + u_plus = 1, both computed from 2s = pi sinh t and
q = exp(-2s) without any 1 - x subtraction.  Each node member carries
five integer columns in units of 2^-P, P = mp.prec + _FIXED_GUARD_BITS:
u, 1/(1+u), Fe = w (1-u)/ln(1/u), u^2 and Fa = w u/asech(u), w the node
weight, all in [0, 1].  The weight and the transcendentals ln(1/u) and
asech(u) enter only through Fe and Fa, computed from q and 2s, so the
deep nodes whose u_plus truncates to exactly 1 still carry their
nonzero weighted columns.  The u column is absolute: below 2^-P it
truncates to 0, so a kernel factor singular at u = 0, such as
u^(-1/2), is only as accurate as those members' weighted columns are
small.  The columns u, Fe and Fa are within one unit of 2^-P of their
exact values, 1/(1+u) within two and u^2 within three
(:func:`_ts_level_columns` derives the bound); the tests check them
against textbook formulas in s = (pi/2) sinh t, 20 digits higher.  The
centre node u = 1/2 (t = 0) is outside the table but comes from the
same generator, :func:`_pair_columns` at 2s = 0, where the pair's two
members coincide, so it meets the same bounds; it is built once per
precision.

Integer level sums.  Every production integral sums its levels in
integers, where mpf overhead (a power, a division, conversions, the adds
of the sum) would cost more than the polynomial itself; the level total
and the outermost term become mpf once per level.  A kernel has two
methods: ``level(table, prec)``, its total over every member of one
level's table and its term at the outermost pair, and
``member(columns, prec)``, its term at one member, which serves the
centre.  A :class:`TermKernel` (the moments I_n, :func:`integral_In`)
turns one member's columns into one integer term by integer products and
right shifts.  A :class:`PowerSumKernel` (the zeta routes) is a
polynomial base * sum_i c_i point^i, with (base, point) read from the
member's columns by its reading.  Its level total is sum_i c_i S_i,
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
from mpmath.libmp import dps_to_prec, from_man_exp, ln2_fixed, mpf_exp, mpf_log, pi_fixed, to_fixed

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
_SERIES_MAX_TERMS = 32  # node logs by series once these end within about this many terms
_LOG2_E = 1 / math.log(2)


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


def _member_columns(fixed_u: int, fe: int, fa: int, prec: int) -> tuple[int, ...]:
    """One node member's five integer columns from its u, Fe and Fa
    columns: 1/(1+u) >= 1/2 and u^2 come from the integer u."""
    one = 1 << prec
    return fixed_u, (one << prec) // (one + fixed_u), fe, fixed_u * fixed_u >> prec, fa


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


def _level_indices(eval_dps: int, depth: int, level: int) -> range:
    """The k of the nodes t = k 2^-level new at this level, up to
    t_max = asinh(depth ln(10) / pi), where q = 10^-depth."""
    with mp.workdps(eval_dps):
        t_max = mp.asinh(depth * mp.log(10) / mp.pi)
        k_max = int(mp.floor(t_max * 2**level))
    return range(1, k_max + 1, 1 if level == 0 else 2)


@lru_cache(maxsize=4)
def _log_sixteenths(prec: int) -> tuple[int, ...]:
    """ln(j/16) for j = 16 .. 31, in units of 2^-prec."""
    return tuple(to_fixed(mpf_log(from_man_exp(j, -4), prec), prec) for j in range(16, 32))


def _log_fixed(x: int, prec: int) -> int:
    """ln(x) for x >= 1, x and the result integers in units of 2^-prec,
    within six units while x < e^2, which covers every x the node table
    passes (at most 2 + sqrt 3): one from r, and two from ln(j/16) and
    three from the log of 2^e r, each rounded and then truncated.
    x = 2^e (j/16) r with 16 <= j < 32 its leading five bits and
    1 <= r < 17/16, so mpf_log, whose table is indexed by a mantissa's
    leading nine bits and filled one entry per new index, sees only the
    16 heads of j/16 and of r: a cold process fills about 32 entries
    instead of up to 256.  The ln(j/16) come at a multiple of 64 bits,
    so nearby node precisions share them."""
    j = x >> x.bit_length() - 5
    table_prec = -(-prec // 64) * 64
    head = _log_sixteenths(table_prec)[j - 16] >> table_prec - prec
    return head + to_fixed(mpf_log(from_man_exp((x << 4) // j, -prec), prec), prec)


def _log1p_ratio(x: int, prec: int) -> int:
    """log1p(x)/x = 2 atanh(v)/x = (2/(2+x)) sum_k v^(2k)/(2k+1) with
    v = x/(2+x), x and the result integers in units of 2^-prec, summed
    until the term truncates to zero: about prec/(2 log2(1/x)) terms,
    each truncated once."""
    two = 2 << prec
    v = (x << prec) // (two + x)
    v2 = v * v >> prec
    total, term, k = 0, 1 << prec, 1
    while term:
        total += term // k
        term = term * v2 >> prec
        k += 2
    return (total << prec + 1) // (two + x)


def _acosh_ratio(x: int, prec: int) -> int:
    """acosh(1+x)/sqrt(2x) = sum_k (-1)^k C(2k,k)/(4^k (2k+1)) (x/2)^k, in
    the units of :func:`_log1p_ratio` and summed the same way."""
    total, term, k, sign = 0, 1 << prec, 0, 1
    while term:
        total += sign * (term // (2 * k + 1))
        k += 1
        term = (term * x >> (prec + 1)) * (2 * k - 1) // (2 * k)
        sign = -sign
    return total


def _series_ratios(q: int, root: int, prec: int) -> tuple[int, int, int]:
    """log1p(q)/q, acosh(1+q)/sqrt(2q) and ln(1 + q + sqrt(1 + 2q)) from
    q and root = sqrt(1 + 2q), all in units of 2^-prec, by the series of
    :func:`_log1p_ratio` and :func:`_acosh_ratio`, with
    ln(1 + q + root) = ln 2 + log1p(y), y = q (1 + 2/(1 + root))/2."""
    one = 1 << prec
    y = q * (one + (one << prec + 1) // (one + root)) >> prec + 1
    rest = ln2_fixed(prec) + (y * _log1p_ratio(y, prec) >> prec)
    return _log1p_ratio(q, prec), _acosh_ratio(q, prec), rest


def _log_ratios(q: int, root: int, prec: int) -> tuple[int, int, int]:
    """:func:`_series_ratios` from three logarithms: of 1 + q, formed
    exactly, of 1 + q + sqrt(q (2+q)) = exp(acosh(1+q)) and of
    1 + q + root."""
    one = 1 << prec
    log_plus = _log_fixed(one + q, prec)
    asech_plus = _log_fixed(one + q + math.isqrt(q * (2 * one + q)), prec)
    return (
        (log_plus << prec) // q,
        (asech_plus << prec) // math.isqrt(q << prec + 1),
        _log_fixed(one + q + root, prec),
    )


def _pair_columns(two_s: int, cosh_pi: int, wp: int, prec: int) -> tuple:
    """One node pair's (minus, plus) integer columns at ``prec`` bits from
    2s and pi cosh t at ``wp`` bits; see :func:`_ts_level_columns`."""
    log2_recip = int(two_s / (1 << wp) * _LOG2_E)  # log2(1/q), rounded down
    # W + L/2 + log2 C bits: Fa ~ C sqrt(q/2) divides by sqrt(q)
    lift = log2_recip // 2 + 1 + cosh_pi.bit_length() - wp
    node_prec = wp + lift
    # q to 8 bits below a unit of node_prec: node_prec - L bits relative;
    # mpf_exp never returns at a precision <= 0
    exp_prec = node_prec - log2_recip + 8
    if exp_prec <= 0:
        raise ValueError(
            f"tanh-sinh node at u ~ 10^-{log2_recip * math.log10(2):.0f} is deeper "
            f"than {prec}-bit node columns resolve"
        )
    q = to_fixed(mpf_exp(from_man_exp(-two_s, -wp), exp_prec), node_prec)
    two_s <<= lift
    one = 1 << node_prec
    u_plus = (one << node_prec) // (one + q)
    b = cosh_pi << lift
    for _ in range(3):
        b = b * u_plus >> node_prec  # pi cosh t / (1+q)^3
    w_plus = b * q >> node_prec  # w u_plus
    w_minus = w_plus * q >> node_prec  # w u_minus
    root = math.isqrt((one + 2 * q) << node_prec)
    ratios = _series_ratios if _SERIES_MAX_TERMS * log2_recip >= node_prec else _log_ratios
    log_ratio, acosh_ratio, rest = ratios(q, root, node_prec)
    log_minus = two_s + (q * log_ratio >> node_prec)
    shift = node_prec - prec
    u_minus = q * u_plus >> node_prec + shift
    minus = _member_columns(
        u_minus,
        (w_plus << node_prec) // log_minus >> shift,
        (w_minus << node_prec) // (two_s + rest) >> shift,
        prec,
    )
    plus = _member_columns(
        (1 << prec) - u_minus,
        (w_plus << node_prec) // log_ratio >> shift,
        b * math.isqrt(q << node_prec - 1) // acosh_ratio >> shift,
        prec,
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
    (minus, plus) of five integer columns each at P = :func:`_fixed_bits`
    (eval_dps) fractional bits (:func:`_member_columns`), computed in
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
    exp at the node's own relative precision, held in fixed point at
    W + L/2 + log2 C bits with L = log2(1/q), since the largest column,
    Fa ~ C sqrt(q/2) at the plus member, divides by sqrt(q).  The rest
    is integer arithmetic at that precision.  The plus member's u column
    is the exact complement 2^P - u_minus.  log1p(q)/q,
    acosh(1+q)/sqrt(2q) and asech(u_minus) - 2s come from short series
    once those end within about _SERIES_MAX_TERMS terms
    (:func:`_series_ratios`), and from three fixed-point logs on the
    inner nodes (:func:`_log_ratios`).

    Error bound, in units of 2^-P.  Each of the N steps of e^t adds at
    most three units of 2^-W relative (the factor's, the product's, the
    start's), so e^t is within 3N 2^-W < 2^(-30-P) relative, and 2s
    within C 2^(-29-P) absolute.  q inherits that relatively, plus one
    unit of the node precision.  Through the relative error, the columns
    move by at most C^2 q or C^2 sqrt(q) times it, both below 10 on every
    node; through the unit, by at most C/sqrt(q) units of the node
    precision, which its extra L/2 + log2 C bits cancel.  With a unit of
    the node precision per series term and six per log, the arithmetic
    errs by less than 2^-16 units before the last truncation to P bits.
    Hence u_minus, Fe and Fa are within one unit (and 2^-16) of their
    exact values, and u_plus too (it lies above, u_minus below); 1/(1+u)
    is within two and u^2 within three, from the integer u.  The tests
    compare every column with textbook formulas in s = (pi/2) sinh t, 20
    digits higher.
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
    degree extends the list and reuses every power already built.
    ``outer`` holds the same powers of the outermost pair alone, for the
    integrator's outermost term."""

    def __init__(self, table: _NodeLevel, reading, prec: int):
        read = [reading(columns, prec) for pair in table for columns in pair]
        self.points = [point for _, point in read]
        self.powers = [base for base, _ in read]
        self.sums = [sum(self.powers)]
        self.outer = [self.powers[-2] + self.powers[-1]]

    def up_to(self, degree: int, prec: int) -> tuple[list[int], list[int]]:
        while len(self.sums) <= degree:
            self.powers = _next_powers(self.powers, self.points, prec)
            self.sums.append(sum(self.powers))
            self.outer.append(self.powers[-2] + self.powers[-1])
        return self.sums, self.outer


@dataclass(frozen=True)
class PowerSumKernel:
    """The polynomial kernel base * sum_i coeffs[i] point^i, lowest power
    first, with (base, point) = ``reading(columns, prec)`` from one node
    member's integer columns, both in units of 2^-prec and point <= 1 up
    to a few units.  :func:`integrate_01_fixed` takes a level's total as
    sum_i coeffs[i] S_i over that table's power sums (:class:`_PowerSums`,
    shared by every kernel with the same reading), exact in integers."""

    reading: Callable[[tuple, int], tuple[int, int]]
    coeffs: tuple[int, ...]

    def member(self, columns: tuple, prec: int) -> int:
        """The kernel at one member, from that member's powers alone."""
        base, point = self.reading(columns, prec)
        powers = _member_powers(base, point, len(self.coeffs) - 1, prec)
        return sum(c * p for c, p in zip(self.coeffs, powers))

    def level(self, table: _NodeLevel, prec: int) -> tuple[int, int]:
        """The kernel summed over every member of ``table``, and over its
        outermost pair alone."""
        sums = table.power_sums.get(self.reading)
        if sums is None:
            sums = table.power_sums[self.reading] = _PowerSums(table, self.reading, prec)
        return tuple(
            sum(c * s for c, s in zip(self.coeffs, column))
            for column in sums.up_to(len(self.coeffs) - 1, prec)
        )


@dataclass(frozen=True)
class TermKernel:
    """A kernel given one member at a time: ``term(columns, prec)`` is w
    times the integrand at one node member, an integer in units of
    2^-prec, from that member's integer columns at prec fractional bits."""

    term: Callable[[tuple, int], int]

    def member(self, columns: tuple, prec: int) -> int:
        """The kernel at one member."""
        return self.term(columns, prec)

    def level(self, table: _NodeLevel, prec: int) -> tuple[int, int]:
        """The kernel summed over every member of ``table``, and over its
        outermost pair alone."""
        pairs = [self.term(lo, prec) + self.term(hi, prec) for lo, hi in table]
        return sum(pairs), pairs[-1]


def _error_estimate(sums, eval_dps: int) -> mp.mpf:
    """Extrapolated error of the last of the level sums ``sums`` (two or
    three of them, oldest first) relative to 1 + |T_k|, taken on the sums
    divided by that scale; see the module docstring."""
    scale = 1 + abs(sums[-1])
    floor = mp.mpf(10) ** -eval_dps
    d1 = abs(sums[-1] - sums[-2]) / scale
    if d1 == 0:
        return floor
    if len(sums) < 3:
        return d1
    d2 = abs(sums[-1] - sums[-3]) / scale
    if d2 == 0:
        return floor
    if d2 >= 1:
        return d1
    D1 = mp.log10(d1)
    D2 = mp.log10(d2)
    return mp.mpf(10) ** max(D1 * D1 / D2, 2 * D1, -eval_dps)


def integrate_01_fixed(kernel, cfg: PrecisionConfig = DEFAULT_PRECISION) -> QuadratureResult:
    """Tanh-sinh integral over (0, 1) of an integer kernel, the level
    sums taken in integers ("Integer level sums" in the module
    docstring): halve the step until the stopping rule holds.

    ``kernel`` works on node members' integer columns (u, 1/(1+u),
    w (1-u)/ln(1/u), u^2, w u/asech(u)) at prec fractional bits, with
    results in units of 2^-prec: ``kernel.level(table, prec)`` returns
    its total over every member of one level's node table and its term
    at the table's outermost pair, and ``kernel.member(columns, prec)``
    its term at one member, which serves the centre.
    :class:`TermKernel` and :class:`PowerSumKernel` are the two kinds.
    Runs at ``cfg.eval_digits`` with node depth :func:`_node_depth`
    (cfg).
    """
    eval_dps = cfg.eval_digits
    depth = _node_depth(cfg)
    prec = _fixed_bits(eval_dps)
    with mp.workdps(eval_dps):
        tol = mp.mpf(10) ** (-(cfg.target_digits + _STOP_HEADROOM))
        sums = []  # the last three level sums, oldest first
        err = mp.inf
        used = 0
        for level in range(_MAX_LEVELS):
            table = _ts_level_columns(eval_dps, depth, level)
            total, outermost = kernel.level(table, prec)
            used += 2 * len(table)
            new = mp.ldexp(total, -prec)
            h = mp.mpf(1) / 2**level
            if level == 0:
                centre = kernel.member(_centre_columns(prec), prec)
                sums.append(h * (mp.ldexp(centre, -prec) + new))
                used += 1
                continue
            current = sums[-1] / 2 + h * new
            sums = sums[-2:] + [current]
            relative = _error_estimate(sums, eval_dps)
            err = relative * (1 + abs(current)) + h * abs(mp.ldexp(outermost, -prec))
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
    table's columns X = u^2 and Fa = w u/asech(u): each term is
    Fa X^(n-1), the power by binary powering (:func:`_power_fixed`), at
    most 2 log2(n) products where a :class:`PowerSumKernel` would form
    all n - 1 powers.

    X is within three units of 2^-P and Fa within one
    (:func:`_ts_level_columns`); the power magnifies X's error by at
    most n - 1, so with the power's 2 log2(n) truncations and the
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
        _, _, _, x, fa = columns
        return fa * _power_fixed(x, n - 1, prec) >> prec

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
