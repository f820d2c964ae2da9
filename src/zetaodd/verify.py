"""Self-check registry: the package's acceptance checks as plain callables.

Each check returns (passed, detail) and carries a wall-clock budget in
seconds, about ten times its standalone time and at least 1 s, so that
a large slowdown fails the check; :func:`run_checks` times them, folds
exceptions into failures instead of aborting the run, and hands back
structured results.  The CLI ``verify`` command and the acceptance test
module are both thin wrappers around this registry, so "what the suite
checks" has a single home.

The checks deliberately re-derive their expected values through routes
that are as independent as the package allows: frozen integer tables,
integer closed forms, and the paper's q recursion and weight solve
where a closed form is on the production path, route 1
(:func:`~zetaodd.zeta.zeta_reference`, mpmath's zeta) for anything
touching quadrature, ``mpmath.quad`` for the zeta(3) kernel (check 5),
and for the singular moments a second quadrature scheme and the theta
sum over zeta values, which takes no node (check 9).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .bernoulli import gen_bernoulli, gen_bernoulli_poly, gen_bernoulli_row, series_oracle
from .hyperbolic import (
    dimension_scan,
    linear_form,
    partial_fraction_residual,
    q_coeff,
    tau_row,
    tau_top,
)
from .quadrature import (
    DEFAULT_PRECISION,
    integral_In,
    integral_In_crosscheck,
)
from .weights import back_substitute, d_coefficients, s_constant, solve_weights, triangular_system
from .zeta import (
    _sech_row,
    asech_kernel_polynomial,
    exp_kernel_polynomial,
    in_sequence_report,
    linear_form_residual,
    zeta3_exp_integral,
    zeta_reference,
    zeta_report,
)

__all__ = ["CheckResult", "CHECKS", "run_checks", "format_result"]


@dataclass(frozen=True)
class CheckResult:
    check_id: int
    title: str
    passed: bool
    detail: str
    elapsed: float
    budget: float

    @property
    def within_budget(self) -> bool:
        return self.elapsed < self.budget

    @property
    def ok(self) -> bool:
        return self.passed and self.within_budget

    @property
    def note(self) -> str:
        """The detail as reported, saying why a passing check still fails."""
        if self.passed and not self.within_budget:
            return f"over budget; {self.detail}"
        return self.detail


def format_result(r: CheckResult) -> str:
    status = "PASS" if r.ok else "FAIL"
    return f"[{r.check_id:2d}] {status} {r.title} ({r.elapsed:.2f} s / {r.budget:.0f} s) {r.note}"


# -- 1 ---------------------------------------------------------------------

_KNOWN_WEIGHTS = {
    3: (1, -3, 2),
    5: (-1, 15, -50, 60, -24),
    7: (1, -63, 602, -2100, 3360, -2520, 720),
}


def _check_weight_vectors() -> tuple[bool, str]:
    bad = []
    for m, expected in _KNOWN_WEIGHTS.items():
        got = solve_weights(m).weights
        if got != tuple(Fraction(x) for x in expected):
            bad.append(f"m={m}: {got}")
    if bad:
        return False, "; ".join(bad)
    return True, "exact match at m = 3, 5, 7"


# -- 2 ---------------------------------------------------------------------

_KNOWN_INTEGER_ROWS = {
    1: (1,),
    2: (1, 1),
    3: (2, 3, 2),
    4: (6, 12, 11, 6),
    5: (24, 60, 70, 50, 24),
    6: (120, 360, 510, 450, 274, 120),
    7: (720, 2520, 4200, 4410, 3248, 1764, 720),
}


def _check_integer_rows() -> tuple[bool, str]:
    bad = []
    for l, expected in _KNOWN_INTEGER_ROWS.items():
        scaled = tuple(math.factorial(l - 1) * c for c in d_coefficients(l))
        if scaled != tuple(Fraction(x) for x in expected):
            bad.append(f"l={l}: {scaled}")
    if bad:
        return False, "; ".join(bad)
    return True, "scaled coefficient rows match for l = 1..7"


# -- 3 ---------------------------------------------------------------------

def _check_bernoulli_routes() -> tuple[bool, str]:
    # n <= l-1 covers every entry triangular_system(41) reads
    columns = {l: series_oracle(l, max(12, l - 1)) for l in range(1, 42)}
    for n in range(41):
        orders = [l for l, column in columns.items() if n < len(column)]
        for l, got in zip(orders, gen_bernoulli_row(n, orders)):
            if got != columns[l][n]:
                return False, f"route mismatch at B({n}, {l})"
    for l in range(1, 9):
        for n in range(11):
            reflected = gen_bernoulli_poly(n, l, l)
            direct = gen_bernoulli(n, l)
            if reflected != (-direct if n % 2 else direct):
                return False, f"reflection fails at (n, l) = ({n}, {l})"
    return True, (
        "closed form == series (n<=max(12,l-1), l<=41); reflection exact (n<=10, l<=8)"
    )


# -- 4 ---------------------------------------------------------------------

def _check_structural_identities() -> tuple[bool, str]:
    system = triangular_system(41)
    for l in range(1, 42):
        if system[(l, l)] != 1:
            return False, f"diagonal b({l},{l}) != 1"
        if system[(1, l)] != 1:
            return False, f"first-row b(1,{l}) != 1"
    for m in range(1, 42):
        wv = back_substitute(system, m)
        if wv.weight(m) != -s_constant(m):
            return False, f"w_m != -s_m at m={m}"
        if m >= 2 and sum(wv.weights) != 0:
            return False, f"weights do not sum to zero at m={m}"
        if m > 15:
            continue
        for j in range(1, m + 1):
            row = sum((system[(j, l)] * wv.weight(l) for l in range(j, m + 1)), Fraction(0))
            expected = -s_constant(m) if j == m else Fraction(0)
            if row != expected:
                return False, f"row {j} of degree {m} re-multiplies to {row}"
    return True, "sum/endpoint/diagonal identities m<=41; full system re-multiplied m<=15"


# -- 5 ---------------------------------------------------------------------

def _check_zeta3_integral() -> tuple[bool, str]:
    reference = zeta_reference(3, 40)
    value = zeta3_exp_integral(DEFAULT_PRECISION)
    with mp.workdps(60):
        diff = abs(value - reference)
        ok = diff < mp.mpf("1e-10")
    return bool(ok), f"|integral - reference| = {mp.nstr(diff, 3)}"


# -- 6 ---------------------------------------------------------------------

def _check_three_way_agreement() -> tuple[bool, str]:
    worst = mp.mpf(0)
    for m in (3, 5, 7, 9, 11, 13):
        report = zeta_report(m, DEFAULT_PRECISION)
        if not report.passed:
            return False, f"m={m}: max diff {mp.nstr(report.max_abs_diff, 3)}"
        worst = max(worst, report.max_abs_diff)
    return True, f"m in {{3..13}}: worst pairwise diff {mp.nstr(worst, 3)}"


# -- 7 ---------------------------------------------------------------------

def _check_first_moment() -> tuple[bool, str]:
    row = tau_row(3)
    if row != {2: Fraction(1, 7)}:
        return False, f"tau_row(3) = {row}"
    with mp.workdps(60):
        expected = 7 * zeta_reference(3, 50) / mp.pi**2
        got = integral_In(1, DEFAULT_PRECISION).value
        diff = abs(got - expected)
        ok = diff < mp.mpf("1e-12")
    return bool(ok), f"tau(2,3) = 1/7 exact; |I_1 - 7 zeta(3)/pi^2| = {mp.nstr(diff, 3)}"


# -- 8 ---------------------------------------------------------------------

def _check_partial_fractions() -> tuple[bool, str]:
    with mp.workdps(40):
        worst = mp.mpf(0)
        where = None
        for l in range(1, 16):
            for i in range(1, 31):
                u = mp.mpf(i) / 10
                r = partial_fraction_residual(l, u)
                if r > worst:
                    worst, where = r, (l, i)
        ok = worst < mp.mpf("1e-25")
    return bool(ok), f"max residual {mp.nstr(worst, 3)} at (l, u*10) = {where}"


# -- 9 ---------------------------------------------------------------------

def _check_moment_sequence() -> tuple[bool, str]:
    values = dict(in_sequence_report(30, DEFAULT_PRECISION))  # raises on violation
    worst = mp.mpf(0)
    for n in range(1, 11):
        cross, _ = integral_In_crosscheck(n, dps=40)
        with mp.workdps(60):
            worst = max(worst, abs(values[n] - cross))
    # The theta sum: zeta values and exact thetas, no node.  The residual
    # integrates I_n itself and the ratio integrates it again; that costs
    # about 20 ms here and keeps the sum in one place, linear_form_residual.
    with mp.workdps(60):
        worst_sum = max(
            linear_form_residual(linear_form(n)) / integral_In(n).value for n in (30, 50, 100, 200)
        )
    ok = worst < mp.mpf("1e-12") and worst_sum <= mp.mpf("1e-30")
    return bool(ok), (
        f"I_1..I_30 strictly decreasing and positive; "
        f"two-scheme diff <= {mp.nstr(worst, 3)} for n <= 10; "
        f"theta-sum relative diff <= {mp.nstr(worst_sum, 3)} for n = 30, 50, 100, 200"
    )


# -- 10 --------------------------------------------------------------------

def _check_dimension_scan() -> tuple[bool, str]:
    if not dimension_scan(20).all_nonzero:
        return False, "a top coefficient is zero for n <= 20"
    worst = mp.mpf(0)
    for n in range(1, 9):
        form = linear_form(n)
        if form.theta_next != 1:
            return False, f"theta_next = {form.theta_next} at n={n}, not 1"
        residual = linear_form_residual(form, DEFAULT_PRECISION)
        with mp.workdps(60):
            worst = max(worst, residual)
    ok = worst < mp.mpf("1e-8")
    return bool(ok), (
        f"top coefficients nonzero n<=20; linear-form residual <= {mp.nstr(worst, 3)} n<=8"
    )


# -- 11 --------------------------------------------------------------------
#
# The weights are checked against the paper's pipeline: solve_weights
# returns the Stirling closed form, and the expected values come from
# the Bernoulli triangular system, back-substituted.  q_coeff, tau_row,
# tau_top, linear_form and exp_kernel_polynomial return closed forms
# too, so their expected values come from the same pipeline, the q
# recursion and the back-substituted weights mixed into tau, with the
# thetas telescoped against that tau and C_m by a Horner pass over the
# weights.  Route 2's row in z = 4q/(1+q)^2 is peeled from C_m; it is
# checked by rebuilding C_m from it and against route 3's numerator row.

def _kernel_by_weights(weights) -> tuple:
    """C_m(q) = sum_l w_l (1 + q + ... + q^(l-1)) (1 + q)^(m-l) by a Horner
    pass in (1 + q): step l multiplies the running polynomial by (1 + q)
    and adds w_l (1 + q + ... + q^(l-1))."""
    coeffs: list = []
    for w in weights:
        coeffs = [a + b + w for a, b in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


def _q_recursion_row(l: int) -> list[int]:
    """[q(1, l), ..., q(ceil(l/2), l)] by the paper's recursion
    q(1, l) = 1, q(j, l) = 1 - sum_{k=1}^{j-1} C(l+1-2k, j-k) q(k, l)."""
    row = [1]
    for j in range(2, (l + 1) // 2 + 1):
        # upper index l+1-2k >= 2 throughout the recursion domain
        row.append(
            1 - sum(math.comb(l + 1 - 2 * k, j - k) * row[k - 1] for k in range(1, j))
        )
    return row


def _tau_by_weights(m: int, weights, q_rows) -> dict[int, Fraction]:
    """The paper's {j: tau(j, m)} for j = 2..(m+1)/2, the weights mixed
    against q: -(2^(m-1) / ((m-1)! (2^m - 1))) sum_{l=2j-1}^{m} w_l
    q(j, l) / 4^(j-1), with ``q_rows[l]`` from :func:`_q_recursion_row`."""
    front = -Fraction(2 ** (m - 1), math.factorial(m - 1) * (2**m - 1))
    return {
        j: front / 4 ** (j - 1)
        * sum((weights[l - 1] * q_rows[l][j - 1] for l in range(2 * j - 1, m + 1)), Fraction(0))
        for j in range(2, (m + 1) // 2 + 1)
    }


def _telescoping_failure(n: int, taus: dict[int, dict[int, Fraction]]) -> str | None:
    """Where linear_form(n) fails to telescope against ``taus``, the
    paper's tau rows by degree: sum_K theta_K tau(j+1, 2K+1) must be 0
    for every column j < n, and theta_n tau(n+1, 2n+1) = theta_next = 1.
    The diagonal is nonzero, so this fixes every theta."""
    form = linear_form(n)
    if form.theta_next != 1:
        return f"theta_next = {form.theta_next}"
    for j in range(1, n + 1):
        col = sum(
            (form.thetas[k - 1] * taus[2 * k + 1][j + 1] for k in range(j, n + 1)), Fraction(0)
        )
        if col != (1 if j == n else 0):
            return f"column {j} sums to {col}"
    return None


def _peel_failure(m: int, c_ms: set) -> str | None:
    """Where route 2's z-basis row (:func:`~zetaodd.zeta._sech_row`)
    fails ROADMAP item 2's identity at odd m: with r_0 = 0 and
    r_(i+1) = 4^i s_i, (1+q)^(m-1) sum_i r_i y^i, y = q/(1+q)^2, must
    rebuild C_m, and one c_m must give r_(i+1) = c_m 4^i a_i against the
    asech row a; that c_m goes into ``c_ms``."""
    c = exp_kernel_polynomial(m)
    coeffs, denom = _sech_row(c)
    r = [0]
    for i, n in enumerate(coeffs):
        ri, rest = divmod(-n * 4**i, denom)
        if rest:
            return f"r_{i + 1} = 4^{i} s_{i} is not an integer"
        r.append(ri)
    rebuilt = [0] * m
    for i, ri in enumerate(r):
        n = m - 1 - 2 * i
        for j in range(n + 1):
            rebuilt[i + j] += ri * math.comb(n, j)
    if tuple(rebuilt) != c:
        return "(1+q)^(m-1) sum r_i y^i does not rebuild C_m"
    a, _ = asech_kernel_polynomial(m)
    ratios = {Fraction(r[i + 1], 4**i * a_i) for i, a_i in enumerate(a) if a_i}
    if len(ratios) != 1 or any(r[i + 1] for i, a_i in enumerate(a) if not a_i):
        return f"r_(i+1) / (4^i a_i) takes the values {sorted(ratios)}"
    c_ms |= ratios
    return None


def _check_integer_closed_forms() -> tuple[bool, str]:
    q_rows = {l: _q_recursion_row(l) for l in range(1, 120)}
    for l, row in q_rows.items():
        for j, expected in enumerate(row, start=1):
            if q_coeff(j, l) != expected:
                return False, f"q({j},{l}) differs from the paper's recursion"
    system = triangular_system(101)
    taus = {}
    c_ms: set = set()
    for m in range(1, 102):
        solved = back_substitute(system, m)
        if solve_weights(m) != solved:
            return False, f"solve_weights differs from the Bernoulli triangular solve at m={m}"
        weights = solved.weights
        if m < 3 or m % 2 == 0:
            continue
        if m <= 61:
            want = _kernel_by_weights(weights)
            for k, (got, c) in enumerate(zip(exp_kernel_polynomial(m), want, strict=True)):
                if got != c:
                    return False, f"Eulerian C_m != Horner over the weights at m={m}, q^{k}"
        taus[m] = _tau_by_weights(m, weights, q_rows)
        if tau_row(m) != taus[m]:
            return False, f"tau_row({m}) differs from the weight solve mixed against q"
        n = m // 2
        if tau_top(n) != taus[m][n + 1]:
            return False, f"tau_top({n}) != tau({n + 1},{m}) by the weight solve"
        where = _telescoping_failure(n, taus)
        if where is not None:
            return False, f"linear_form({n}) does not telescope against the paper's tau: {where}"
        where = _peel_failure(m, c_ms)
        if where is not None:
            return False, f"route 2's sech^2 row at m={m}: {where}"
    return True, (
        "Stirling weights == Bernoulli triangular solve for m<=101; "
        "q(j,l) = (-1)^(j-1) C(l-j,j-1) == recursion for l<=119; "
        "central factorial tau == weight-solve tau for odd m<=101; "
        "tau_top(n) = 1/(2^(2n+1)-1) == its top entry for n<=50; "
        "closed thetas telescope against it for n<=50; "
        "Eulerian C_m == Horner over the weights for odd m<=61; "
        "(1+q)^(m-1) sum r_i y^i == C_m and r_(i+1) = c_m 4^i a_i for odd m<=101, "
        f"c_m in {{{', '.join(str(c) for c in sorted(c_ms))}}}"
    )


CHECKS = (
    (1, "published weight vectors", 1.0, _check_weight_vectors),
    (2, "published integer coefficient rows", 1.0, _check_integer_rows),
    (3, "two-route Bernoulli agreement + reflection", 5.0, _check_bernoulli_routes),
    (4, "structural identities to degree 41", 2.0, _check_structural_identities),
    (5, "zeta(3) exponential integral vs reference", 2.0, _check_zeta3_integral),
    (6, "three-way zeta agreement m <= 13", 2.0, _check_three_way_agreement),
    (7, "first moment: tau(2,3) and I_1", 2.0, _check_first_moment),
    (8, "partial-fraction residuals l <= 15", 2.0, _check_partial_fractions),
    (9, "moment monotonicity + second scheme", 5.0, _check_moment_sequence),
    (10, "dimension scan + linear forms", 2.0, _check_dimension_scan),
    (11, "integer closed forms vs the exact pipeline", 15.0, _check_integer_closed_forms),
)


def run_checks(ids=None, reporter=None) -> list[CheckResult]:
    """Run the registered checks (all by default) in id order.

    ``reporter`` is called with each CheckResult as it lands, which
    lets the CLI stream progress on long runs.  Exceptions inside a
    check are converted to failed results so one broken area cannot
    hide another's status.
    """
    wanted = set(ids) if ids is not None else {c[0] for c in CHECKS}
    unknown = wanted - {c[0] for c in CHECKS}
    if unknown:
        raise ValueError(f"unknown check ids: {sorted(unknown)}")
    results = []
    for check_id, title, budget, func in CHECKS:
        if check_id not in wanted:
            continue
        start = time.perf_counter()
        try:
            passed, detail = func()
        except Exception as exc:  # noqa: BLE001 - fold into the report
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        result = CheckResult(check_id, title, passed, detail, elapsed, budget)
        results.append(result)
        if reporter is not None:
            reporter(result)
    return results
