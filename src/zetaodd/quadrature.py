"""Double-exponential quadrature tuned for two kernel families.

Two integrators live here, both refining a trapezoid sum over a
double-exponential change of variable by halving the step until two
consecutive levels agree:

* :func:`integrate_01_singular` on (0, 1), built for integrands with an
  inverse-square-root blowup at u = 1 (and anything milder at u = 0);
* :func:`integrate_0inf_decaying` on (0, infinity), built for
  integrands finite at 0 with exponential decay (any positive rate;
  algebraic decay steeper than x^-2 is also inside the truncation
  range).

Neither is a general-purpose integrator: the tail-truncation rules
assume the transformed terms decay monotonically once they start
falling, which holds for the fixed-sign kernels this package feeds in
but not for oscillatory ones.  A tail heavier than the decay contract
is the one failure the level-agreement test cannot see, because the
truncated mass is the same at every level.

Precision policy.  Nodes near u = 1 are represented as (u_minus,
u_plus) pairs computed from q = exp(-2 sinh-scale) without any 1 - x
subtraction, so the node values themselves are clean.  The remaining
noise source is the integrand re-deriving 1 - u from u, which loses
digits proportional to the depth of the boundary layer; tanh-sinh
therefore evaluates everything at

    eval_dps = max(working_digits, 2 * target_digits + 12)

which keeps that loss below the target for inverse-square-root
singularities (the absolute error contributed by the deepest retained
node is about 10^-(target + 8)).  The node range is capped so that
u_plus stays strictly below 1 and u_minus strictly above 0 at eval_dps.

The half line has no such boundary layer, so exp-sinh runs at
working_digits rounded up to a multiple of 10 (see
PrecisionConfig.half_line_digits); the rounding lets nearby working
precisions share one node table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp

__all__ = [
    "PrecisionConfig",
    "DEFAULT_PRECISION",
    "QuadratureResult",
    "NonConvergenceError",
    "asech_stable",
    "integrate_01_singular",
    "integrate_0inf_decaying",
    "integral_In",
    "integral_In_crosscheck",
    "clear_node_caches",
]

_TAIL_EPS_SHIFT = 5   # tail cutoff sits 10^-5 below eval precision
_TAIL_RUN = 3         # consecutive negligible terms before truncating
_TAIL_MIN_INDEX = 4   # never truncate inside the first few nodes


@dataclass(frozen=True)
class PrecisionConfig:
    """Requested accuracy and the arithmetic budget used to reach it.

    ``working_digits`` must exceed ``target_digits`` by at least 10
    guard digits; each integrator evaluates at its own precision
    derived from these (see the module docstring).  ``max_levels``
    bounds the step-halving refinements.
    """

    target_digits: int = 30
    working_digits: int = 50
    max_levels: int = 12

    def __post_init__(self) -> None:
        if self.target_digits < 1:
            raise ValueError(f"target_digits must be >= 1, got {self.target_digits}")
        if self.working_digits < self.target_digits + 10:
            raise ValueError(
                "working_digits must be >= target_digits + 10, got "
                f"{self.working_digits} for target {self.target_digits}"
            )
        if self.max_levels < 3:
            raise ValueError(f"max_levels must be >= 3, got {self.max_levels}")

    @property
    def eval_digits(self) -> int:
        """Evaluation precision of the tanh-sinh integrator on (0, 1).

        Only tanh-sinh runs this hot: its integrands re-derive 1 - u
        near the singular endpoint.  Exp-sinh uses
        :attr:`half_line_digits` instead.
        """
        return max(self.working_digits, 2 * self.target_digits + 12)

    @property
    def half_line_digits(self) -> int:
        """Evaluation precision of the exp-sinh integrator on (0, inf):
        working_digits rounded up to a multiple of 10, so that nearby
        working precisions share one node table."""
        return -(-self.working_digits // 10) * 10


DEFAULT_PRECISION = PrecisionConfig()


@dataclass(frozen=True)
class QuadratureResult:
    """Converged integral value with its refinement diagnostics.

    ``error_estimate`` is the absolute difference between the last two
    refinement levels; ``nodes_used`` counts integrand evaluations.
    """

    value: mp.mpf
    error_estimate: mp.mpf
    nodes_used: int
    levels: int


class NonConvergenceError(ArithmeticError):
    """Refinement exhausted max_levels without two levels agreeing.

    Carries the best value seen so that a caller who wants to inspect
    the failure can; the usual cause is an integrand outside the
    contract (wrong decay rate, oscillation, stronger singularity).
    """

    def __init__(self, message: str, best_value=None, error_estimate=None):
        super().__init__(message)
        self.best_value = best_value
        self.error_estimate = error_estimate


def asech_stable(u) -> mp.mpf:
    """asech(u) on (0, 1], accurate through the u -> 1 boundary layer.

    Uses asech(u) = log1p((r + (1-u))/u) with r = sqrt((1-u)(1+u)).
    Near u = 1 both r and 1-u vanish, so the log1p argument is small
    and carries the full precision of 1-u; near u = 0 the argument is
    ~2/u and log1p reproduces the ln(2/u) growth.  Identical to the
    textbook ln((1 + sqrt(1-u^2))/u) in exact arithmetic.
    """
    u = mp.mpf(u)
    if not 0 < u <= 1:
        raise ValueError("asech_stable is defined on (0, 1]")
    d = 1 - u
    r = mp.sqrt(d * (1 + u))
    return mp.log1p((r + d) / u)


# -- node tables ---------------------------------------------------------
#
# Keyed by (eval_dps, level).  Level 0 holds t = 1 .. t_max step 1 (the
# t = 0 center node is handled by the callers); level k >= 1 holds the
# odd multiples of 2^-k in (0, t_max].  All node data is derived from
# q = exp(-2s) so no subtraction ever forms the boundary gap.

@lru_cache(maxsize=None)
def _ts_tmax(eval_dps: int) -> mp.mpf:
    with mp.workdps(eval_dps):
        s_max = mp.mpf(eval_dps - _TAIL_EPS_SHIFT) * mp.log(10) / 2
        return mp.asinh(2 * s_max / mp.pi)


@lru_cache(maxsize=None)
def _ts_level_nodes(eval_dps: int, level: int):
    """Tanh-sinh nodes new at this level: tuples (u_minus, u_plus, w)."""
    with mp.workdps(eval_dps):
        t_max = _ts_tmax(eval_dps)
        h = mp.mpf(1) / 2**level
        ts = []
        k = 1
        step = 1 if level == 0 else 2
        t = k * h
        while t <= t_max:
            ts.append(t)
            k += step
            t = k * h
        out = []
        for t in ts:
            s = mp.pi * mp.sinh(t) / 2
            q = mp.exp(-2 * s)
            one_plus_q = 1 + q
            u_plus = 1 / one_plus_q
            u_minus = q / one_plus_q
            w = mp.pi * mp.cosh(t) * q / (one_plus_q * one_plus_q)
            out.append((u_minus, u_plus, w))
        return tuple(out)


@lru_cache(maxsize=None)
def _es_level_nodes(eval_dps: int, level: int):
    """Exp-sinh nodes new at this level, as (toward_zero, toward_inf).

    Each side is a tuple of (x, w) ordered by increasing |t|.  The two
    truncation depths differ: toward zero the map must reach
    x ~ 10^-(eval_dps + 10) before w f(x) ~ x is negligible, while
    toward infinity x grows so fast that ln x ~ 2 (eval_dps + 10) ln 10
    already overshoots any decay rate >= 1/2.  The sides mirror each
    other at equal |t|, so both come from one exp(t) and one exp(s):
    x = exp(+-s) and w = (pi/2) cosh(t) x.
    """
    with mp.workdps(eval_dps):
        depth = mp.mpf(eval_dps + 10) * mp.log(10)
        t_lo = mp.asinh(2 * depth / mp.pi)       # t < 0 side, x -> 0
        t_hi = mp.asinh(4 * depth / mp.pi)       # t > 0 side, x -> inf
        h = mp.mpf(1) / 2**level
        step = 1 if level == 0 else 2
        quarter_pi = mp.pi / 4
        toward_zero = []
        toward_inf = []
        k = 1
        t = k * h
        while t <= t_hi:
            e_t = mp.exp(t)
            e_neg = 1 / e_t
            x = mp.exp(quarter_pi * (e_t - e_neg))  # s = (pi/2) sinh t
            half_w = quarter_pi * (e_t + e_neg)     # (pi/2) cosh t
            toward_inf.append((x, half_w * x))
            if t <= t_lo:
                toward_zero.append((1 / x, half_w / x))
            k += step
            t = k * h
        return tuple(toward_zero), tuple(toward_inf)


def clear_node_caches() -> None:
    """Drop memoized node tables (they are pure functions of dps/level),
    the asech values at the nodes and the memoized moments."""
    _ts_tmax.cache_clear()
    _ts_level_nodes.cache_clear()
    _es_level_nodes.cache_clear()
    _IN_CACHE.clear()
    _ASECH_AT_NODES.clear()


def _tail_sum(terms, eps) -> tuple[mp.mpf, int]:
    """Sum a lazy sequence of terms ordered outward from the center,
    stopping once _TAIL_RUN consecutive terms are <= eps (never inside
    the first _TAIL_MIN_INDEX + 1).  Returns (sum, terms consumed)."""
    total = mp.mpf(0)
    quiet = 0
    used = 0
    for i, term in enumerate(terms):
        used += 1
        total += term
        if abs(term) <= eps:
            quiet += 1
            if quiet >= _TAIL_RUN and i >= _TAIL_MIN_INDEX:
                break
        else:
            quiet = 0
    return total, used


def _refine(level_sum, cfg: PrecisionConfig, eval_dps: int, label: str) -> QuadratureResult:
    """Shared halving loop: level_sum(level, eps) -> (new_terms, evals)."""
    with mp.workdps(eval_dps):
        tol = mp.mpf(10) ** (-cfg.target_digits)
        base_eps = mp.mpf(10) ** (-(eval_dps + _TAIL_EPS_SHIFT))
        total = None
        err = mp.inf
        used = 0
        for level in range(cfg.max_levels):
            scale = 1 + abs(total) if total is not None else mp.mpf(1)
            new, evals = level_sum(level, base_eps * scale)
            used += evals
            h = mp.mpf(1) / 2**level
            current = h * new if level == 0 else total / 2 + h * new
            if level >= 1:
                err = abs(current - total)
                if err <= tol * (1 + abs(current)):
                    return QuadratureResult(current, err, used, level + 1)
            total = current
        raise NonConvergenceError(
            f"{label}: no convergence to {cfg.target_digits} digits within "
            f"{cfg.max_levels} levels (last delta {mp.nstr(err, 3)})",
            best_value=total,
            error_estimate=err,
        )


def integrate_01_singular(f, cfg: PrecisionConfig = DEFAULT_PRECISION) -> QuadratureResult:
    """Tanh-sinh integral of f over (0, 1).

    The integrand is called at strictly interior nodes only, never at 0
    or 1, with node pairs whose boundary gaps are exact to eval
    precision; see the module docstring for the accuracy model.
    """
    eval_dps = cfg.eval_digits

    def level_sum(level: int, eps):
        nodes = _ts_level_nodes(eval_dps, level)
        total, count = _tail_sum((w * (f(lo) + f(hi)) for lo, hi, w in nodes), eps)
        if level == 0:
            return mp.pi / 4 * f(mp.mpf(1) / 2) + total, 2 * count + 1
        return total, 2 * count

    return _refine(level_sum, cfg, eval_dps, "tanh-sinh on (0,1)")


def integrate_0inf_decaying(f, cfg: PrecisionConfig = DEFAULT_PRECISION) -> QuadratureResult:
    """Exp-sinh integral of f over (0, infinity).

    Assumes f is finite at 0+ and decays within the module contract
    (see the module docstring); the node range runs deep enough that
    any exponential rate is covered.  An integrand that merely
    oscillates or grows shows up as NonConvergenceError; one with an
    out-of-contract heavy tail is the documented silent failure mode.
    Evaluation runs at ``cfg.half_line_digits``.
    """
    eval_dps = cfg.half_line_digits

    def level_sum(level: int, eps):
        toward_zero, toward_inf = _es_level_nodes(eval_dps, level)
        center, used = (mp.pi / 2 * f(mp.mpf(1)), 1) if level == 0 else (0, 0)
        down, n1 = _tail_sum((w * f(x) for x, w in toward_zero), eps)
        up, n2 = _tail_sum((w * f(x) for x, w in toward_inf), eps)
        return center + down + up, used + n1 + n2

    return _refine(level_sum, cfg, eval_dps, "exp-sinh on (0,inf)")


# -- the inverse-asech moment integrals ----------------------------------

_IN_CACHE: dict[tuple[int, PrecisionConfig], QuadratureResult] = {}

# asech at the tanh-sinh nodes, one table per eval precision, keyed by
# node value and filled as moments reach the nodes.  Every I_n at that
# precision divides by the same asech values, so each is computed once.
_ASECH_AT_NODES: dict[int, dict[mp.mpf, mp.mpf]] = {}


def integral_In(n: int, cfg: PrecisionConfig = DEFAULT_PRECISION) -> QuadratureResult:
    """I_n = integral of u^(2n-1) / asech(u) over (0, 1), memoized.

    The integrand vanishes at u = 0 (for n >= 1) and blows up like
    (2 (1-u))^(-1/2) at u = 1, the exact singularity class the
    tanh-sinh integrator is tuned for.  asech comes from a per-node
    table shared by all moments at the same eval precision; the values
    are the ones asech_stable returns, so results do not depend on
    which moments ran first.
    """
    if n < 1:
        raise ValueError(f"moment index n must be >= 1, got {n}")
    key = (n, cfg)
    hit = _IN_CACHE.get(key)
    if hit is not None:
        return hit
    e = 2 * n - 1
    asech_at = _ASECH_AT_NODES.setdefault(cfg.eval_digits, {})

    def f(u):
        a = asech_at.get(u)
        if a is None:
            a = asech_at[u] = asech_stable(u)
        return u**e / a

    result = integrate_01_singular(f, cfg)
    _IN_CACHE[key] = result
    return result


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
