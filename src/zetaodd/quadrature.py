"""Tanh-sinh quadrature on (0, 1), the one integrator of this package.

The integrator refines a trapezoid sum over the tanh-sinh change of
variable by halving the step, and stops once an extrapolated error
estimate clears the target (see Stopping rule), summing mpf integrands
(:func:`integrate_01_singular`) or integer kernels
(:func:`integrate_01_fixed`) in one level loop.  It is built for
integrands with an inverse-square-root blowup at u = 1 and anything
milder at u = 0 (a logarithm, an inverse square root).
Integrals over (0, infinity) come here too, through q = e^-u: the
exp-kernel route of :mod:`zetaodd.zeta` integrates in q, reading
ln(1/q) from the node table.

It is not a general-purpose integrator: the tail rule assumes the
transformed terms rise to a peak and then fall monotonically, which
holds for the fixed-sign kernels this package feeds in but not for
oscillatory ones.  A tail heavier than the truncation depth is the one
failure the error estimate cannot see, because the truncated mass is
the same at every level.

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

Integrand contract.  Nodes come in pairs (u_minus, u_plus) with
u_minus + u_plus = 1, both computed from 2s = pi sinh t and
q = exp(-2s) without any 1 - x subtraction.  The integrand is called as
f(u, 1 - u, ln(1/u), asech(u)), with the complement taken from the
other member of the pair, so it never re-derives 1 - u, and deep nodes
whose u_plus rounds to exactly 1 still carry their exact, nonzero
complement.  ln(1/u) (the exp route's ln(1/q)) and asech(u) are
computed once per node from q and 2s (:func:`_ts_level_nodes`, the mpf
node table; production reads the same quantities as integer columns,
see Integer level sums); :func:`neglog_stable` and
:func:`asech_stable` are the tests' oracles for them.  Nothing tells
one integrand from another: the integrator calls f and reads no type
or attribute of it.

Integer level sums.  :func:`integrate_01_fixed` runs the same loop,
nodes, tail rule, stopping rule and error estimate, but takes each
level's sum in Python integers.  Every production integral goes through
it: the zeta routes' polynomial kernels and the moments I_n
(:func:`integral_In`), where mpf overhead (a power, a division,
conversions, the adds of the sum) costs more than the polynomial
itself.  Its node table (:func:`_ts_level_columns`) holds, per node
member, only integer columns in units of 2^-P, with
P = mp.prec + _FIXED_GUARD_BITS: u, 1/(1+u), w (1-u)/ln(1/u), u^2 and
w u/asech(u), w the node weight, all in [0, 1].  They are computed in
integers, each node at its own precision, and nothing in the table is
an mpf; the mpf table of :func:`integrate_01_singular`, through
:func:`_fixed_columns` at 20 digits more, is their oracle in the tests.
The columns u, Fe = w (1-u)/ln(1/u) and Fa = w u/asech(u) are within
one unit of 2^-P of their exact values (a truncation, after arithmetic
that errs by less than 2^-16 units), 1/(1+u) within two and u^2 within
three, both from the integer u (:func:`_ts_level_columns` derives the
bound).  The centre node u = 1/2 (t = 0) is outside the table but
comes from the same generator, :func:`_pair_columns` at 2s = 0, where
the pair's two members coincide, so it meets the same bounds.  The
kernel turns one member's columns into one integer term by integer
products and right shifts, and the level's terms go through the same
_tail_sum against the cutoff in the same units, so the tail rule sees
the same terms; the level total and the outermost term become mpf once
per level.  Each right shift truncates by less than one unit, so a term
errs by at most 2^-P times the kernel's count of truncations and column
units, each scaled by how much the rest of the term can magnify it
(:func:`zetaodd.zeta._degree_setup` bounds this for the routes,
:func:`integral_In` for the moments).  The guard puts a unit at or
below 10^-(eval_digits + _TAIL_EPS_SHIFT + 1), so the tail cutoff is at
least ten units, and 2^20 units make one unit in the last place of a
term near 1 at the working precision.  :func:`integrate_01_singular` is
the general mpf integrator, for integrands that are no integer kernel
on these columns (fixed point has no relative precision), and the
tests' reference for the integer sums; nothing on the production path
calls it.

One precision, separate depth.  Arithmetic runs at
PrecisionConfig.eval_digits: working_digits rounded up to a multiple of
10, so nearby working precisions share node tables.  The node depth is
set apart from it: the outermost nodes reach 1 - u ~ 10^-(2 target + 7)
(target floored at 8, see _node_depth), because the truncated mass of a
1/sqrt(1 - u) singularity is the square root of the gap (about
10^-(target + 3.5) there).  Deep nodes cost
less, not more: a node's q needs only about P - log2(1/q)/2 bits of
relative precision, since its columns shrink like sqrt(q).  Both node
tables are keyed by (eval precision, depth, level), and each holds at
most _NODE_TABLES_KEPT levels at once, so a session that sweeps
precisions keeps bounded state.

Tail rule.  Each level sums its terms outward from the centre and stops
after _TAIL_RUN consecutive terms at or below 10^-(eval_digits + 5)
times the running scale, but only once some term has exceeded that
cutoff: at level k >= 1 the first nodes sit near u = 1/2, where an
integrand such as u^(2n-1) is negligible long before its mass near
1 - u ~ 1/n is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
from mpmath.libmp import dps_to_prec, from_man_exp, ln2_fixed, mpf_exp, mpf_log, pi_fixed, to_fixed

__all__ = [
    "PrecisionConfig",
    "DEFAULT_PRECISION",
    "QuadratureResult",
    "NonConvergenceError",
    "asech_stable",
    "neglog_stable",
    "integrate_01_singular",
    "integrate_01_fixed",
    "integral_In",
    "integral_In_crosscheck",
]

_TAIL_EPS_SHIFT = 5   # tail cutoff sits 10^-5 below eval precision
_TAIL_RUN = 3         # consecutive negligible terms before truncating
_STOP_HEADROOM = 10   # the error estimate must clear the target by 10^-10
_MAX_LEVELS = 12      # step-halving refinements before NonConvergenceError
_NODE_TABLES_KEPT = 32  # levels each node memo keeps; a zeta_report sweep of m <= 41 builds 13
# integer columns carry this many bits past the working precision: one
# digit more than the tail cutoff sits below it, so the cutoff is >= 10 units
_FIXED_GUARD_BITS = math.ceil((_TAIL_EPS_SHIFT + 1) * math.log2(10))
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
    docstring).  ``nodes_used`` counts integrand evaluations.
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


def asech_stable(u, d=None) -> mp.mpf:
    """asech(u) on (0, 1], accurate through the u -> 1 boundary layer.

    Uses asech(u) = log1p((r + d)/u) with d = 1 - u and
    r = sqrt(d (1 + u)).  Near u = 1 both r and d vanish, so the log1p
    argument is small and carries the full precision of d; near u = 0
    the argument is ~2/u and log1p reproduces the ln(2/u) growth.
    Identical to the textbook ln((1 + sqrt(1-u^2))/u) in exact
    arithmetic.  Pass the exact complement ``d`` when it is known (the
    integrator's node pairs carry it); otherwise it is formed as 1 - u.
    Off the production path: the node tables carry asech(u) for the
    integrands, and this is the tests' oracle for them.
    """
    u = mp.mpf(u)
    d = 1 - u if d is None else mp.mpf(d)
    if not (0 < u <= 1 and d >= 0):
        raise ValueError("asech_stable is defined on (0, 1]")
    r = mp.sqrt(d * (1 + u))
    return mp.log1p((r + d) / u)


def neglog_stable(q, d=None) -> mp.mpf:
    """ln(1/q) on (0, 1], accurate at both ends: -log1p(-d) with
    d = 1 - q when d < 1/2, -log(q) otherwise.  This is the half-line
    abscissa u of the node q = e^-u.  As for :func:`asech_stable`, pass
    the exact complement ``d`` when it is known; and as it, this is the
    tests' oracle for the ln(1/u) the node tables carry."""
    q = mp.mpf(q)
    d = 1 - q if d is None else mp.mpf(d)
    if not (0 < q <= 1 and d >= 0):
        raise ValueError("neglog_stable is defined on (0, 1]")
    return -mp.log1p(-d) if 2 * d < 1 else -mp.log(q)


# -- node tables ---------------------------------------------------------
#
# Two tables of the same nodes, both keyed by (eval_dps, depth, level):
# the integer columns production sums (_ts_level_columns) and the mpf
# nodes of the general integrator, their oracle (_ts_level_nodes).  Level 0
# holds t = 1 .. t_max step 1 (the t = 0 centre node is handled by the
# caller); level k >= 1 holds the odd multiples of 2^-k in (0, t_max].  All
# node data is derived from q = exp(-2s) and 2s itself, so no subtraction
# ever forms the boundary gap.

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


def _fixed_columns(u, d, log_recip, asech, w, prec: int) -> tuple[int, ...]:
    """One node member's integer columns at ``prec`` fractional bits from
    its mpf arguments, all in [0, 1]: u, 1/(1+u), w (1-u)/ln(1/u), u^2
    and w u/asech(u).  The weighted columns are formed in mpf at the
    working precision and then truncated, so they carry that rounding,
    about 2^20 units at P = :func:`_fixed_bits` (eval_dps); 20 digits
    higher they are the tests' oracle for :func:`_ts_level_columns` and
    for the centre node of :func:`integrate_01_fixed`."""
    return _member_columns(
        to_fixed(u._mpf_, prec),
        to_fixed((w * d / log_recip)._mpf_, prec),
        to_fixed((w * u / asech)._mpf_, prec),
        prec,
    )


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


@lru_cache(maxsize=_NODE_TABLES_KEPT)
def _ts_level_nodes(eval_dps: int, depth: int, level: int) -> tuple:
    """Tanh-sinh nodes new at this level, in mpf: tuples (minus, plus, w),
    each member of the pair the integrand's arguments (u, 1 - u, ln(1/u),
    asech(u)), with u_minus = q/(1+q) ~ 10^-depth at the outermost node.
    The nodes of :func:`integrate_01_singular`, and through
    :func:`_fixed_columns` the oracle for :func:`_ts_level_columns`.

    With 2s = pi sinh t and q = exp(-2s): u_plus = 1/(1+q),
    u_minus = q u_plus and w = pi cosh(t) q u_plus^2; sinh t and cosh t
    both come from one exp(t).  The transcendentals follow from q and 2s
    without a cancelling subtraction: ln(1/u_plus) = log1p(q),
    ln(1/u_minus) = 2s + log1p(q), asech(u_plus) = log1p(q + sqrt(q (2+q)))
    and asech(u_minus) = 2s + ln(1 + q + sqrt(1 + 2q)).
    """
    with mp.workdps(eval_dps):
        h = mp.mpf(1) / 2**level
        half_pi = mp.pi / 2
        out = []
        for k in _level_indices(eval_dps, depth, level):
            e_t = mp.exp(k * h)
            e_neg = 1 / e_t
            two_s = half_pi * (e_t - e_neg)
            q = mp.exp(-two_s)
            u_plus = 1 / (1 + q)
            u_minus = q * u_plus
            w = half_pi * (e_t + e_neg) * u_minus * u_plus
            log_plus = mp.log1p(q)
            minus = (u_minus, u_plus, two_s + log_plus,
                     two_s + mp.log(1 + q + mp.sqrt(1 + 2 * q)))
            plus = (u_plus, u_minus, log_plus, mp.log1p(q + mp.sqrt(q * (2 + q))))
            out.append((minus, plus, w))
        return tuple(out)


@lru_cache(maxsize=4)
def _log_sixteenths(prec: int) -> tuple[int, ...]:
    """ln(j/16) for j = 16 .. 31, in units of 2^-prec."""
    return tuple(to_fixed(mpf_log(from_man_exp(j, -4), prec), prec) for j in range(16, 32))


def _log_fixed(x: int, prec: int) -> int:
    """ln(x) for x >= 1, x and the result integers in units of 2^-prec,
    within three units (one each from r, its log and ln(j/16)).
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
    # q to 8 bits below a unit of node_prec: node_prec - L bits relative
    q = to_fixed(mpf_exp(from_man_exp(-two_s, -wp), node_prec - log2_recip + 8), node_prec)
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


@lru_cache(maxsize=_NODE_TABLES_KEPT)
def _ts_level_columns(eval_dps: int, depth: int, level: int) -> tuple:
    """The production node table: the nodes of :func:`_ts_level_nodes`
    as pairs (minus, plus) of five integer columns each, the
    :func:`_fixed_columns` at P = :func:`_fixed_bits` (eval_dps)
    fractional bits, computed in integers with no mpf kept.

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
    precision, which its extra L/2 + log2 C bits cancel.  With one unit
    of the node precision per series term or log, the arithmetic errs by
    less than 2^-16 units before the last truncation to P bits.  Hence
    u_minus, Fe and Fa are within one unit (and 2^-16) of their exact
    values, and u_plus too (it lies above, u_minus below); 1/(1+u) is
    within two and u^2 within three, from the integer u as in
    :func:`_fixed_columns`.  The tests compare every column with
    :func:`_fixed_columns` of :func:`_ts_level_nodes` 20 digits higher.
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
    return tuple(out)


def _tail_sum(terms, eps):
    """Sum a lazy sequence of terms ordered outward from the centre,
    stopping once _TAIL_RUN consecutive terms are <= eps after some term
    has exceeded eps.  Returns (sum, terms consumed, last term summed).
    Terms and eps are all mpf or all integers."""
    total = term = 0
    peaked = False
    quiet = 0
    used = 0
    for term in terms:
        used += 1
        total += term
        if abs(term) > eps:
            peaked = True
            quiet = 0
        elif peaked:
            quiet += 1
            if quiet >= _TAIL_RUN:
                break
    return total, used, term


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


def _centre() -> tuple:
    """The integrand's arguments at the centre node u = 1/2."""
    half = mp.mpf(1) / 2
    return half, half, mp.log(2), mp.log(2 + mp.sqrt(3))


def _refine(table, centre, level_sum, cfg: PrecisionConfig) -> QuadratureResult:
    """The level loop: halve the step until the stopping rule holds.
    ``table(eval_dps, depth, level)`` is the node table,
    ``centre()`` pi/4 times the integrand at u = 1/2, and
    ``level_sum(nodes, eps)`` the :func:`_tail_sum` of one level's pair
    terms at cutoff eps, as mpf; both run at eval_digits."""
    eval_dps = cfg.eval_digits
    depth = _node_depth(cfg)
    with mp.workdps(eval_dps):
        tol = mp.mpf(10) ** (-(cfg.target_digits + _STOP_HEADROOM))
        base_eps = mp.mpf(10) ** (-(eval_dps + _TAIL_EPS_SHIFT))
        sums = []  # the last three level sums, oldest first
        err = mp.inf
        used = 0
        for level in range(_MAX_LEVELS):
            scale = 1 + abs(sums[-1]) if sums else mp.mpf(1)
            nodes = table(eval_dps, depth, level)
            new, count, outermost = level_sum(nodes, base_eps * scale)
            used += 2 * count
            h = mp.mpf(1) / 2**level
            if level == 0:
                sums.append(h * (centre() + new))
                used += 1
                continue
            current = sums[-1] / 2 + h * new
            sums = sums[-2:] + [current]
            relative = _error_estimate(sums, eval_dps)
            err = relative * (1 + abs(current)) + h * abs(outermost)
            if relative <= tol:
                return QuadratureResult(current, err, used, level + 1)
        raise NonConvergenceError(
            f"tanh-sinh on (0,1): no convergence to {cfg.target_digits} digits "
            f"within {_MAX_LEVELS} levels (error estimate {mp.nstr(err, 3)})",
            best_value=sums[-1],
            error_estimate=err,
        )


def integrate_01_singular(f, cfg: PrecisionConfig = DEFAULT_PRECISION) -> QuadratureResult:
    """Tanh-sinh integral over (0, 1) of the integrand f(u, 1 - u, ...).

    f is called at strictly interior nodes only, as
    f(u, d, log_recip, asech) with d the exact complement 1 - u taken
    from the node pair, never re-derived, log_recip = ln(1/u) and
    asech = asech(u), both carried by the node table; an integrand reads
    the arguments it needs.  u may round to 1 at the deepest nodes, d
    never rounds to 0.  Runs at ``cfg.eval_digits``; see the module
    docstring for the accuracy model.
    """

    def level_sum(nodes, eps):
        return _tail_sum((w * (f(*lo) + f(*hi)) for lo, hi, w in nodes), eps)

    return _refine(_ts_level_nodes, lambda: mp.pi / 4 * f(*_centre()), level_sum, cfg)


def integrate_01_fixed(kernel, cfg: PrecisionConfig = DEFAULT_PRECISION) -> QuadratureResult:
    """:func:`integrate_01_singular` with the level sums taken in
    integers ("Integer level sums" in the module docstring).

    ``kernel(prec)`` returns ``term(columns)``: w times the integrand at
    one node member, as an integer in units of 2^-prec, from that
    member's integer columns (u, 1/(1+u), w (1-u)/ln(1/u), u^2,
    w u/asech(u)) at prec fractional bits.  Same nodes, tail rule,
    stopping rule, error estimate and node count as the mpf path.
    """
    prec = _fixed_bits(cfg.eval_digits)
    term = kernel(prec)

    def centre():
        # t = 0: 2s = 0, pi cosh t = pi, and the pair's two members coincide
        wp = prec + _COLUMN_GUARD_BITS
        minus, _ = _pair_columns(0, pi_fixed(wp), wp, prec)
        return mp.ldexp(term(minus), -prec)

    def level_sum(nodes, eps):
        total, count, outermost = _tail_sum(
            (term(lo) + term(hi) for lo, hi in nodes), to_fixed(eps._mpf_, prec)
        )
        return mp.ldexp(total, -prec), count, mp.ldexp(outermost, -prec)

    return _refine(_ts_level_columns, centre, level_sum, cfg)


# -- the inverse-asech moment integrals ----------------------------------

def integral_In(n: int, cfg: PrecisionConfig = DEFAULT_PRECISION) -> QuadratureResult:
    """I_n = integral of u^(2n-1) / asech(u) over (0, 1).

    The integrand vanishes at u = 0 (for n >= 1) and blows up like
    (2 (1-u))^(-1/2) at u = 1, the exact singularity class the
    tanh-sinh integrator is tuned for.  It is the asech route's integral
    with the polynomial x^(n-1), so the level sums are taken in integers
    (:func:`integrate_01_fixed`) from the node table's columns X = u^2
    and Fa = w u/asech(u): each term is Fa X^(n-1), the power by
    :func:`_power_fixed`.  X is within three units of 2^-P and Fa within
    one (:func:`_ts_level_columns`); the power magnifies X's error by at
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

    def kernel(prec):
        def term(columns):
            _, _, _, x, fa = columns
            return fa * _power_fixed(x, n - 1, prec) >> prec

        return term

    return integrate_01_fixed(kernel, cfg)


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
