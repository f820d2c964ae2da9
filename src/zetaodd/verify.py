"""Self-check registry: the package's acceptance checks as plain callables.

Each check returns (passed, detail) and carries an optional wall-clock
budget in seconds; :func:`run_checks` times them, folds exceptions into
failures instead of aborting the run, and hands back structured
results.  The CLI ``verify`` command and the acceptance test module are
both thin wrappers around this registry, so "what the suite checks" has
a single home.

The checks deliberately re-derive their expected values through routes
that are as independent as the package allows: frozen integer tables
and integer closed forms for the exact layer, the Dirichlet-series
oracle for anything touching quadrature, ``mpmath.quad`` for the
zeta(3) kernel (check 5), and a second quadrature scheme for the
singular moments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .bernoulli import gen_bernoulli, gen_bernoulli_poly, series_oracle
from .exact import binomial, factorial
from .hyperbolic import partial_fraction_residual, q_coeff, tau, tau_top
from .quadrature import (
    DEFAULT_PRECISION,
    integral_In,
    integral_In_crosscheck,
)
from .weights import coeff_b, d_coefficients, s_constant, solve_weights, triangular_system
from .zeta import (
    dimension_scan,
    exp_kernel_polynomial,
    in_sequence_report,
    linear_form,
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
    budget: float | None

    @property
    def within_budget(self) -> bool:
        return self.budget is None or self.elapsed < self.budget

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
    timing = f"{r.elapsed:.2f} s"
    if r.budget is not None:
        timing += f" / {r.budget:.0f} s"
    return f"[{r.check_id:2d}] {status} {r.title} ({timing}) {r.note}"


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
        scaled = tuple(factorial(l - 1) * c for c in d_coefficients(l))
        if scaled != tuple(Fraction(x) for x in expected):
            bad.append(f"l={l}: {scaled}")
    if bad:
        return False, "; ".join(bad)
    return True, "scaled coefficient rows match for l = 1..7"


# -- 3 ---------------------------------------------------------------------

def _check_bernoulli_routes() -> tuple[bool, str]:
    # n <= l-1 covers every entry solve_weights(41) reads
    for l in range(1, 42):
        oracle = series_oracle(l, max(12, l - 1))
        for n, expected in enumerate(oracle):
            if gen_bernoulli(n, l) != expected:
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
    for l in range(1, 42):
        if coeff_b(l, l) != 1:
            return False, f"diagonal b({l},{l}) != 1"
        if coeff_b(1, l) != 1:
            return False, f"first-row b(1,{l}) != 1"
    for m in range(1, 42):
        wv = solve_weights(m)
        if wv.weight(m) != -s_constant(m):
            return False, f"w_m != -s_m at m={m}"
        if m >= 2 and sum(wv.weights) != 0:
            return False, f"weights do not sum to zero at m={m}"
    for m in range(1, 16):
        system = triangular_system(m)
        wv = solve_weights(m)
        for j in range(1, m + 1):
            row = sum(
                (system.entry(j, l) * wv.weight(l) for l in range(j, m + 1)),
                Fraction(0),
            )
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
    return bool(ok), f"|integral - series| = {mp.nstr(diff, 3)}"


# -- 6 ---------------------------------------------------------------------

def _check_three_way_agreement() -> tuple[bool, str]:
    worst = mp.mpf(0)
    for m in (3, 5, 7, 9, 11, 13):
        report = zeta_report(m, DEFAULT_PRECISION, tolerance=mp.mpf("1e-9"))
        if not report.passed:
            return False, f"m={m}: max diff {mp.nstr(report.max_abs_diff, 3)}"
        worst = max(worst, report.max_abs_diff)
    return True, f"m in {{3..13}}: worst pairwise diff {mp.nstr(worst, 3)}"


# -- 7 ---------------------------------------------------------------------

def _check_first_moment() -> tuple[bool, str]:
    if tau(2, 3) != Fraction(1, 7):
        return False, f"tau(2,3) = {tau(2, 3)}"
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
    ok = worst < mp.mpf("1e-12")
    return bool(ok), (
        f"I_1..I_30 strictly decreasing and positive; "
        f"two-scheme diff <= {mp.nstr(worst, 3)} for n <= 10"
    )


# -- 10 --------------------------------------------------------------------

def _check_dimension_scan() -> tuple[bool, str]:
    report = dimension_scan(20)
    if not report.all_nonzero:
        return False, f"unexpected zero top coefficient at n in {report.zeros()}"
    worst = mp.mpf(0)
    for n in range(1, 9):
        form = linear_form(n)
        top_is_zero = report.rows[n - 1].is_zero
        if (form.theta_next == 0) != top_is_zero:
            return False, f"branch inconsistency at n={n}"
        residual = linear_form_residual(form, DEFAULT_PRECISION)
        with mp.workdps(60):
            worst = max(worst, residual)
    ok = worst < mp.mpf("1e-8")
    return bool(ok), (
        f"top coefficients nonzero n<=20; linear-form residual <= {mp.nstr(worst, 3)} n<=8"
    )


# -- 11 --------------------------------------------------------------------
#
# Expected values come from integer recurrences and binomials only: no
# Bernoulli number, triangular solve or q recursion goes into them.

def _stirling2_rows(m_max: int) -> list[list[int]]:
    """rows[m][l] = S(m, l), Stirling numbers of the second kind."""
    rows = [[1]]
    for m in range(1, m_max + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [l * prev[l] + prev[l - 1] for l in range(1, m + 1)])
    return rows


def _eulerian_rows(n_max: int) -> list[list[int]]:
    """rows[n][k] = A(n, k), Eulerian numbers: A_n(t) = sum_k A(n, k) t^k."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]  # prev[-1] is this padding 0 when k = 0
        rows.append([(k + 1) * prev[k] + (n - k) * prev[k - 1] for k in range(n)])
    return rows


def _check_integer_closed_forms() -> tuple[bool, str]:
    stirling = _stirling2_rows(61)
    for m in range(1, 62):
        expected = tuple(
            Fraction((-1) ** (m // 2 + l) * factorial(l - 1) * stirling[m][l])
            for l in range(1, m + 1)
        )
        if solve_weights(m).weights != expected:
            return False, f"weights differ from (-1)^(m//2+l) (l-1)! S(m,l) at m={m}"
    for l in range(1, 120):
        for j in range(1, (l + 1) // 2 + 1):
            if q_coeff(j, l) != (-1) ** (j - 1) * binomial(l - j, j - 1):
                return False, f"q({j},{l}) != (-1)^(j-1) C(l-j,j-1)"
    for n in range(1, 21):
        if tau_top(n) != Fraction(1, 2 ** (2 * n + 1) - 1):
            return False, f"tau_top({n}) != 1/(2^{2 * n + 1}-1)"
    eulerian = _eulerian_rows(60)
    for m in range(3, 62, 2):
        c = exp_kernel_polynomial(m)
        lhs = [a - b for a, b in zip(c + (0,), (0,) + c)]  # (1 - q) C_m(q)
        sign = (-1) ** ((m - 1) // 2)
        rhs = [0] + [sign * 2 * (-1) ** k * a for k, a in enumerate(eulerian[m - 1])]
        rhs += [0] * (len(lhs) - len(rhs))
        for k, (got, want) in enumerate(zip(lhs, rhs)):
            if got != want:
                return False, (
                    f"(1-q) C_m(q) != (-1)^((m-1)/2) 2q A_(m-1)(-q) at m={m}, q^{k}"
                )
    return True, (
        "w = (-1)^(m//2+l) (l-1)! S(m,l) for m<=61; "
        "q(j,l) = (-1)^(j-1) C(l-j,j-1) for l<=119; "
        "tau_top(n) = 1/(2^(2n+1)-1) for n<=20; "
        "(1-q) C_m(q) = (-1)^((m-1)/2) 2q A_(m-1)(-q) for odd m<=61"
    )


CHECKS = (
    (1, "published weight vectors", 1.0, _check_weight_vectors),
    (2, "published integer coefficient rows", 1.0, _check_integer_rows),
    (3, "two-route Bernoulli agreement + reflection", 5.0, _check_bernoulli_routes),
    (4, "structural identities to degree 41", 30.0, _check_structural_identities),
    (5, "zeta(3) exponential integral vs series", 2.0, _check_zeta3_integral),
    (6, "three-way zeta agreement m <= 13", 60.0, _check_three_way_agreement),
    (7, "first moment: tau(2,3) and I_1", None, _check_first_moment),
    (8, "partial-fraction residuals l <= 15", None, _check_partial_fractions),
    (9, "moment monotonicity + second scheme", 60.0, _check_moment_sequence),
    (10, "dimension scan + linear forms", 120.0, _check_dimension_scan),
    (11, "integer closed forms vs the exact pipeline", 30.0, _check_integer_closed_forms),
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
