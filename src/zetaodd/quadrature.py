"""Tanh-sinh quadrature on (0, 1), the one integrator of this package.

:func:`integrate_01_singular` refines a trapezoid sum over the
tanh-sinh change of variable by halving the step until two consecutive
levels agree.  It is built for integrands with an inverse-square-root
blowup at u = 1 and anything milder at u = 0 (a logarithm, an inverse
square root).  Integrals over (0, infinity) come here too, through
q = e^-u: the exp-kernel route of :mod:`zetaodd.zeta` integrates in q,
reading ln(1/q) from a per-node table (:func:`neglog_stable`).

It is not a general-purpose integrator: the tail rule assumes the
transformed terms rise to a peak and then fall monotonically, which
holds for the fixed-sign kernels this package feeds in but not for
oscillatory ones.  A tail heavier than the truncation depth is the one
failure the level-agreement test cannot see, because the truncated mass
is the same at every level.

Complement-aware integrands.  Nodes come in pairs (u_minus, u_plus)
with u_minus + u_plus = 1, both computed from q = exp(-2 sinh-scale)
without any 1 - x subtraction.  The integrand is called as f(u, 1 - u)
with the complement taken from the other member of the pair, so it never
re-derives 1 - u, and deep nodes whose u_plus rounds to exactly 1 still
carry their exact, nonzero complement.

One precision, separate depth.  Arithmetic runs at
PrecisionConfig.eval_digits: working_digits rounded up to a multiple of
10, so nearby working precisions share node tables.  The node depth is
set apart from it: the outermost nodes reach 1 - u ~ 10^-(2 target + 7),
because the truncated mass of a 1/sqrt(1 - u) singularity is the square
root of the gap (about 10^-(target + 3.5) there) and deep mpf exponents
cost nothing.  Node tables are keyed by (eval precision, depth, level).

Tail rule.  Each level sums its terms outward from the centre and stops
after _TAIL_RUN consecutive terms at or below 10^-(eval_digits + 5)
times the running scale, but only once some term has exceeded that
cutoff: at level k >= 1 the first nodes sit near u = 1/2, where an
integrand such as u^(2n-1) is negligible long before its mass near
1 - u ~ 1/n is reached.
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
    "neglog_stable",
    "at_nodes",
    "integrate_01_singular",
    "integral_In",
    "integral_In_crosscheck",
    "clear_node_caches",
]

_TAIL_EPS_SHIFT = 5   # tail cutoff sits 10^-5 below eval precision
_TAIL_RUN = 3         # consecutive negligible terms before truncating


@dataclass(frozen=True)
class PrecisionConfig:
    """Requested accuracy and the arithmetic budget used to reach it.

    ``working_digits`` must exceed ``target_digits`` by at least 10
    guard digits; the integrator evaluates at :attr:`eval_digits`,
    derived from it.  ``max_levels`` bounds the step-halving
    refinements.
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
        """The one precision the integrator evaluates at: working_digits
        rounded up to a multiple of 10, so that nearby working precisions
        share one node table."""
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
    contract (oscillation, a stronger singularity, a heavy tail).
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
    the exact complement ``d`` when it is known."""
    q = mp.mpf(q)
    d = 1 - q if d is None else mp.mpf(d)
    if not (0 < q <= 1 and d >= 0):
        raise ValueError("neglog_stable is defined on (0, 1]")
    return -mp.log1p(-d) if 2 * d < 1 else -mp.log(q)


# -- node tables ---------------------------------------------------------
#
# Keyed by (eval_dps, depth, level).  Level 0 holds t = 1 .. t_max step 1
# (the t = 0 centre node is handled by the caller); level k >= 1 holds the
# odd multiples of 2^-k in (0, t_max].  All node data is derived from
# q = exp(-2s) so no subtraction ever forms the boundary gap.

def _node_depth(cfg: PrecisionConfig) -> int:
    """Digits of the smallest boundary gap 1 - u the nodes reach."""
    return 2 * cfg.target_digits + 7


@lru_cache(maxsize=None)
def _ts_level_nodes(eval_dps: int, depth: int, level: int):
    """Tanh-sinh nodes new at this level: tuples (u_minus, u_plus, w),
    with u_minus = q/(1+q) ~ 10^-depth at the outermost node.  With
    s = (pi/2) sinh t and q = exp(-2s): u_plus = 1/(1+q),
    u_minus = q u_plus and w = pi cosh(t) q u_plus^2; sinh t and cosh t
    both come from one exp(t)."""
    with mp.workdps(eval_dps):
        t_max = mp.asinh(depth * mp.log(10) / mp.pi)  # where q = 10^-depth
        h = mp.mpf(1) / 2**level
        step = 1 if level == 0 else 2
        half_pi = mp.pi / 2
        out = []
        k = 1
        t = k * h
        while t <= t_max:
            e_t = mp.exp(t)
            e_neg = 1 / e_t
            q = mp.exp(-half_pi * (e_t - e_neg))
            u_plus = 1 / (1 + q)
            u_minus = q * u_plus
            w = half_pi * (e_t + e_neg) * u_minus * u_plus
            out.append((u_minus, u_plus, w))
            k += step
            t = k * h
        return tuple(out)


# Per-node values shared by every integrand at one eval precision (the
# asech of the moments, ln(1/q) of the exp route), filled lazily.  They
# are keyed by the node pair (u, 1 - u): at eval precision the deep
# u_plus values round to exactly 1, so u alone would collide.
_AT_NODES: dict[tuple[object, int], dict[tuple[mp.mpf, mp.mpf], mp.mpf]] = {}


def at_nodes(fn, eval_dps: int):
    """fn(u, d), memoized per node pair in a table for this precision.

    ``fn`` must be a pure function of (u, d) at the given precision, such
    as :func:`asech_stable`; every caller at that precision shares the
    table, so each value is computed once per node.
    """
    table = _AT_NODES.setdefault((fn, eval_dps), {})

    def cached(u, d):
        key = (u, d)
        value = table.get(key)
        if value is None:
            value = table[key] = fn(u, d)
        return value

    return cached


def clear_node_caches() -> None:
    """Drop memoized node tables (they are pure functions of precision,
    depth and level), the per-node values and the memoized moments."""
    _ts_level_nodes.cache_clear()
    _AT_NODES.clear()
    _IN_CACHE.clear()


def _tail_sum(terms, eps) -> tuple[mp.mpf, int]:
    """Sum a lazy sequence of terms ordered outward from the centre,
    stopping once _TAIL_RUN consecutive terms are <= eps after some term
    has exceeded eps.  Returns (sum, terms consumed)."""
    total = mp.mpf(0)
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
    return total, used


def integrate_01_singular(f, cfg: PrecisionConfig = DEFAULT_PRECISION) -> QuadratureResult:
    """Tanh-sinh integral over (0, 1) of the integrand f(u, 1 - u).

    f is called at strictly interior nodes only, as f(u, d) with d the
    exact complement 1 - u taken from the node pair, never re-derived;
    u may round to 1 at the deepest nodes, d never rounds to 0.  Runs
    at ``cfg.eval_digits``; see the module docstring for the accuracy
    model.
    """
    eval_dps = cfg.eval_digits
    depth = _node_depth(cfg)
    with mp.workdps(eval_dps):
        tol = mp.mpf(10) ** (-cfg.target_digits)
        base_eps = mp.mpf(10) ** (-(eval_dps + _TAIL_EPS_SHIFT))
        half = mp.mpf(1) / 2
        total = None
        err = mp.inf
        used = 0
        for level in range(cfg.max_levels):
            scale = 1 + abs(total) if total is not None else mp.mpf(1)
            nodes = _ts_level_nodes(eval_dps, depth, level)
            new, count = _tail_sum(
                (w * (f(lo, hi) + f(hi, lo)) for lo, hi, w in nodes), base_eps * scale
            )
            used += 2 * count
            h = mp.mpf(1) / 2**level
            if level == 0:
                current = h * (mp.pi / 4 * f(half, half) + new)
                used += 1
            else:
                current = total / 2 + h * new
                err = abs(current - total)
                if err <= tol * (1 + abs(current)):
                    return QuadratureResult(current, err, used, level + 1)
            total = current
        raise NonConvergenceError(
            f"tanh-sinh on (0,1): no convergence to {cfg.target_digits} digits "
            f"within {cfg.max_levels} levels (last delta {mp.nstr(err, 3)})",
            best_value=total,
            error_estimate=err,
        )


# -- the inverse-asech moment integrals ----------------------------------

_IN_CACHE: dict[tuple[int, PrecisionConfig], QuadratureResult] = {}


def integral_In(n: int, cfg: PrecisionConfig = DEFAULT_PRECISION) -> QuadratureResult:
    """I_n = integral of u^(2n-1) / asech(u) over (0, 1), memoized.

    The integrand vanishes at u = 0 (for n >= 1) and blows up like
    (2 (1-u))^(-1/2) at u = 1, the exact singularity class the
    tanh-sinh integrator is tuned for.  asech comes from the per-node
    table shared by all moments at the same eval precision
    (:func:`at_nodes`); the values are the ones asech_stable returns,
    so results do not depend on which moments ran first.
    """
    if n < 1:
        raise ValueError(f"moment index n must be >= 1, got {n}")
    key = (n, cfg)
    hit = _IN_CACHE.get(key)
    if hit is not None:
        return hit
    e = 2 * n - 1
    asech = at_nodes(asech_stable, cfg.eval_digits)
    result = integrate_01_singular(lambda u, d: u**e / asech(u, d), cfg)
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
