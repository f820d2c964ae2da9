"""Checks of zetaodd results against oracles the package does not share.

* zeta values: ``mpmath.zeta(m)``, which shares no code with the
  package's three routes (the package never calls it).
* exact tables: integer closed forms.  The weights are
  ``w_l = (-1)^(floor(m/2)+l) (l-1)! S(m, l)`` with ``S`` the Stirling
  numbers of the second kind, the partial-fraction integers are
  ``q(j, l) = (-1)^(j-1) C(l-j, j-1)``, and the top coefficient is
  ``tau(n+1, 2n+1) = 1/(2^(2n+1)-1)``.  None of them goes through the
  Bernoulli numbers, the triangular solve or the ``q`` recursion.

Every check returns ``(ok, margin_digits, detail)``; ``margin_digits``
is ``None`` for exact results.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

# a value is correct when it is within one unit of the last requested digit
_SLACK_DIGITS = 1
# relative errors below 10^-(digits + _MARGIN_CAP) read as this many extra digits
_MARGIN_CAP = 12


@lru_cache(maxsize=None)
def zeta_oracle(m: int, digits: int) -> mp.mpf:
    with mp.workdps(digits + 20):
        return +mp.zeta(m)


def check_zeta_value(text: str, m: int, digits: int):
    """Compare a decimal string against mpmath.zeta(m) at ``digits``."""
    with mp.workdps(digits + 20):
        try:
            value = mp.mpf(text)
        except (TypeError, ValueError):
            return False, None, f"zeta({m}): unparsable value {text!r}"
        exact = zeta_oracle(m, digits)
        rel = abs(value - exact) / abs(exact)
        ok = rel <= mp.mpf(10) ** (_SLACK_DIGITS - digits)
        floor = mp.mpf(10) ** (-(digits + _MARGIN_CAP))
        margin = float(-mp.log10(max(rel, floor))) - digits
    detail = "" if ok else f"zeta({m}) at {digits} digits: relative error {mp.nstr(rel, 3)}"
    return bool(ok), margin, detail


def _check_routes(values: dict, m: int, digits: int):
    margins = []
    for key in ("reference", "via_exp_kernel", "via_asech_kernel"):
        if key not in values:
            return False, None, f"zeta({m}): route {key} missing"
        ok, margin, detail = check_zeta_value(str(values[key]), m, digits)
        if not ok:
            return False, margin, f"{key}: {detail}"
        margins.append(margin)
    return True, min(margins), ""


def check_cli_zeta(value: dict, m: int, digits: int):
    """``zetaodd zeta --m M --digits D --format json``: exit 0, pass true,
    and all three printed routes right against the oracle."""
    if value.get("exit") != 0:
        return False, None, f"zeta --m {m}: exit code {value.get('exit')}"
    try:
        payload = json.loads(value["stdout"])
    except (KeyError, ValueError):
        return False, None, f"zeta --m {m}: output is not JSON"
    if payload.get("pass") is not True or payload.get("m") != m:
        return False, None, f"zeta --m {m}: pass={payload.get('pass')!r} m={payload.get('m')!r}"
    return _check_routes(payload, m, digits)


def check_zeta_report(value: dict, m: int, digits: int):
    """``zeta_report(m)``: passed, and every route right against the oracle."""
    if value.get("passed") is not True or value.get("m") != m:
        return False, None, f"zeta_report({m}): passed={value.get('passed')!r}"
    return _check_routes(value, m, digits)


@lru_cache(maxsize=None)
def stirling2_row(m: int) -> tuple[int, ...]:
    """(S(m, 0), ..., S(m, m)) by the standard recurrence."""
    row = [1]
    for n in range(1, m + 1):
        nxt = [0] * (n + 1)
        for k in range(1, n + 1):
            nxt[k] = k * (row[k] if k < n else 0) + row[k - 1]
        row = nxt
    return tuple(row)


@lru_cache(maxsize=None)
def weights_closed_form(m: int) -> tuple[int, ...]:
    s = stirling2_row(m)
    return tuple((-1) ** (m // 2 + l) * math.factorial(l - 1) * s[l] for l in range(1, m + 1))


def q_closed_form(j: int, l: int) -> int:
    return (-1) ** (j - 1) * math.comb(l - j, j - 1)


@lru_cache(maxsize=None)
def tau_closed_form(j: int, m: int) -> Fraction:
    """tau(j, m) from its defining mix of weights and q, with both taken
    from their closed forms."""
    w = weights_closed_form(m)
    mix = sum(w[l - 1] * q_closed_form(j, l) for l in range(2 * j - 1, m + 1))
    front = -Fraction(2 ** (m - 1), math.factorial(m - 1) * (2**m - 1))
    return front * mix / 4 ** (j - 1)


def _fraction(text) -> Fraction:
    return Fraction(str(text))


def check_dimension_scan(value: dict, n_max: int):
    rows = value.get("rows", [])
    if len(rows) != n_max:
        return False, None, f"dimension_scan({n_max}): {len(rows)} rows"
    for i, (n, m, tau_text, is_zero) in enumerate(rows, start=1):
        want = Fraction(1, 2 ** (2 * i + 1) - 1)
        if n != i or m != 2 * i + 1 or is_zero or _fraction(tau_text) != want:
            return False, None, f"dimension_scan row {i}: {n} {m} {tau_text} {is_zero}"
    return True, None, ""


def check_linear_form(value: dict, n: int):
    """theta_next is 1 and sum_k theta_k tau(j+1, 2k+1) vanishes for every
    j < n; with a nonzero diagonal this fixes every theta."""
    thetas = [_fraction(t) for t in value.get("thetas", [])]
    if value.get("n") != n or len(thetas) != n:
        return False, None, f"linear_form({n}): wrong shape"
    if _fraction(value.get("theta_next")) != 1:
        return False, None, f"linear_form({n}): theta_next {value.get('theta_next')}"
    if thetas[n - 1] * tau_closed_form(n + 1, 2 * n + 1) != 1:
        return False, None, f"linear_form({n}): top coefficient wrong"
    for j in range(1, n):
        col = sum(thetas[k - 1] * tau_closed_form(j + 1, 2 * k + 1) for k in range(j, n + 1))
        if col != 0:
            return False, None, f"linear_form({n}): column {j} does not telescope"
    return True, None, ""


def check_solve_weights(value: dict, m: int):
    weights = [_fraction(w) for w in value.get("weights", [])]
    if value.get("m") != m or tuple(weights) != weights_closed_form(m):
        return False, None, f"solve_weights({m}) differs from the Stirling closed form"
    return True, None, ""


CHECKS = {
    "cli_zeta": check_cli_zeta,
    "zeta_report": check_zeta_report,
    "dimension_scan": check_dimension_scan,
    "linear_form": check_linear_form,
    "solve_weights": check_solve_weights,
}
