import math
from fractions import Fraction

import mpmath as mp
import pytest

import zetaodd.zeta as zeta_mod
from zetaodd.hyperbolic import tau_row, tau_top
from zetaodd.quadrature import DEFAULT_PRECISION, PrecisionConfig, integral_In, neglog_stable
from zetaodd.weights import solve_weights
from zetaodd.zeta import (
    LinearForm,
    ScanReport,
    ScanRow,
    dimension_scan,
    in_sequence_report,
    linear_form,
    linear_form_residual,
    zeta3_exp_integral,
    zeta_reference,
    zeta_report,
    zeta_via_asech_kernel,
    zeta_via_exp_kernel,
)


@pytest.fixture(autouse=True)
def _high_ambient_dps():
    with mp.workdps(60):
        yield


# Digits x odd degree; the deep corners run only with --run-slow.
_SLOW_CORNERS = {(300, m) for m in (3, 13, 41, 61, 101)} | {(100, 61), (100, 101)}
_PRECISION_GRID = [
    pytest.param(d, m, marks=pytest.mark.slow) if (d, m) in _SLOW_CORNERS else (d, m)
    for d in (15, 30, 100, 300)
    for m in (3, 13, 41, 61, 101)
]


def _exp_kernel_two_exponentials(u, weights):
    # the weight-sum kernel -(1 - q)/u * sum_l w_l P^l (1 + ... + q^(l-1)),
    # P = 1/(1+q), with q and 1 - q from separate exp and expm1 calls
    q = mp.exp(-u)
    d = -mp.expm1(-u)
    p = 1 / (1 + q)
    p_power = q_power = mp.mpf(1)
    geometric = total = mp.mpf(0)
    for w in weights:
        p_power *= p
        geometric += q_power
        q_power *= q
        total += w * p_power * geometric
    return -(d / u) * total


def _envelope_condition_digits(m, coeffs, n=500):
    """log10 of max g(q) sum |c_k| q^k over max g(q) |C_m(q)| on q = i/n,
    g(q) = (1 - q)/(u (1 + q)^m): how far Horner's rounding envelope
    rises above the kernel itself.  Polynomial values are exact
    integers, scaled by n^(m-1)."""
    pows = [n**j for j in range(m)]
    envelope_peak = kernel_peak = -math.inf
    for i in range(1, n):
        q = i / n
        log_g = math.log10((1 - q) / (-math.log(q) * (1 + q) ** m))
        value = envelope = 0
        for k in range(m - 1, -1, -1):
            value = value * i + coeffs[k] * pows[m - 1 - k]
            envelope = envelope * i + abs(coeffs[k]) * pows[m - 1 - k]
        envelope_peak = max(envelope_peak, math.log10(envelope) + log_g)
        if value:
            kernel_peak = max(kernel_peak, math.log10(abs(value)) + log_g)
    return envelope_peak - kernel_peak


def _fixed_point_error_digits(m, coeffs, n=2000):
    """log10 of the integral of (1 - q)/(L (1 + q)^m) (m + sum (k-1)
    |c_k| q^(k-2)) over (0, 1), L = ln(1/q), by the midpoint rule on q,
    over the integral of the exp kernel itself, which is zeta(m)
    (2^m - 1) (m-1)! / (2 pi)^(m-1)."""
    weighted = [float((k - 1) * abs(coeffs[k])) for k in range(m - 1, 1, -1)]
    total = 0.0
    for i in range(n):
        q = (i + 0.5) / n
        p = 0.0
        for a in weighted:
            p = p * q + a
        total += (1 - q) / (-math.log(q) * (1 + q) ** m) * (m + p)
    log_kernel = (
        math.log10(mp.zeta(m)) + math.log10(2**m - 1)
        + math.lgamma(m) / math.log(10) - (m - 1) * math.log10(2 * math.pi)
    )
    return math.log10(total / n) - log_kernel


class TestReference:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 13, 41])
    def test_matches_library(self, m):
        got = zeta_reference(m, digits=30)
        want = mp.zeta(m)
        assert abs(got - want) < mp.mpf("1e-29")

    def test_basel(self):
        got = zeta_reference(2, digits=40)
        assert abs(got - mp.pi**2 / 6) < mp.mpf("1e-39")

    def test_high_precision_request(self):
        got = zeta_reference(3, digits=50)
        assert abs(got - mp.zeta(3)) < mp.mpf("1e-49")

    @pytest.mark.parametrize("m", [1, 0, -3])
    def test_domain(self, m):
        with pytest.raises(ValueError):
            zeta_reference(m)


class TestIntegralRoutes:
    def test_zeta3_dedicated_kernel(self):
        got = zeta3_exp_integral(DEFAULT_PRECISION)
        assert abs(got - mp.zeta(3)) < mp.mpf("1e-28")

    @pytest.mark.parametrize("m", [3, 5])
    def test_exp_kernel(self, m):
        got = zeta_via_exp_kernel(m, DEFAULT_PRECISION)
        assert abs(got - mp.zeta(m)) < mp.mpf("1e-24")

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_asech_kernel(self, m):
        got = zeta_via_asech_kernel(m, DEFAULT_PRECISION)
        assert abs(got - mp.zeta(m)) < mp.mpf("1e-24")

    def test_zeta3_two_kernels_differ_in_route_only(self):
        a = zeta3_exp_integral(DEFAULT_PRECISION)
        b = zeta_via_exp_kernel(3, DEFAULT_PRECISION)
        assert abs(a - b) < mp.mpf("1e-28")

    @pytest.mark.parametrize(
        "m, target",
        [(m, t) for m in (3, 13, 41) for t in (15, 30, 60)]
        + [(3, 100), (61, 15), (61, 30)],
    )
    def test_exp_kernel_precision_grid(self, m, target):
        cfg = PrecisionConfig(target_digits=target, working_digits=target + 20)
        got = zeta_via_exp_kernel(m, cfg)
        with mp.workdps(target + 30):
            assert abs(got - mp.zeta(m)) <= mp.mpf(10) ** -(target + 10)

    def test_zeta3_dedicated_kernel_at_30_digits(self):
        cfg = PrecisionConfig(target_digits=30, working_digits=50)
        got = zeta3_exp_integral(cfg)
        assert abs(got - mp.zeta(3)) <= mp.mpf(10) ** -40

    @pytest.mark.parametrize("m", [3, 13, 41])
    def test_exp_kernel_one_exponential_form(self, m):
        # the q-form kernel -(d/L) D_m(q)/(1+q)^m at a node (q, d) must
        # equal the half-line weight-sum form it came from, K(u)/q at
        # u = L, on both sides of L's switch at q = 1/2 (u = ln 2).  The
        # oracle runs with the old weight-cancellation guard on top of
        # the route's precision, plus log10(1/q) digits: at large u its
        # sum_l w_l = 0 cancels to O(q).  The tolerance is relative to
        # Horner's rounding envelope sum |c_k| q^(k-1) plus the
        # fixed-point bound (m + sum (k-1) |c_k|) 2^-prec, both times
        # (d/L)/(1+q)^m.
        cfg, coeffs = zeta_mod._exp_route_setup(m, DEFAULT_PRECISION)
        eval_dps = cfg.eval_digits
        c = zeta_mod.exp_kernel_polynomial(m)
        abs_coeffs = [abs(x) for x in reversed(c[1:])]
        fixed = m + sum((k - 1) * abs(x) for k, x in enumerate(c) if k)
        wv = solve_weights(m).weights
        old_guard = len(str(int(max(abs(w) for w in wv) * m))) + 2
        with mp.workdps(eval_dps):
            tol = mp.mpf(10) ** (5 - eval_dps)
            for u in (
                mp.mpf("1e-40"), mp.mpf("1e-3"), mp.mpf("0.5"),
                mp.ln2 - mp.mpf("1e-30"), mp.ln2, mp.ln2 + mp.mpf("1e-30"),
                mp.mpf(7), mp.mpf(10) ** 4,
            ):
                q, d = mp.exp(-u), -mp.expm1(-u)
                log_recip = neglog_stable(q, d)
                got = zeta_mod._exp_kernel(q, d, log_recip, coeffs)
                envelope = d / log_recip / (1 + q) ** m * (
                    mp.polyval(abs_coeffs, q) + fixed * mp.ldexp(1, -mp.mp.prec)
                )
                with mp.workdps(eval_dps + old_guard + int(u / mp.ln10)):
                    weights = tuple(mp.mpf(w.numerator) / w.denominator for w in wv)
                    want = _exp_kernel_two_exponentials(u, weights) / mp.exp(-u)
                assert abs(got - want) <= tol * envelope

    def test_exp_guard_covers_fixed_point_horner(self):
        # D_m's fixed-point error at q is at most
        # (m + sum (k-1) |c_k| q^(k-2)) 2^-prec; integrated against the
        # kernel's weight and divided by the integral itself it must stay
        # below the guard, for every admitted degree
        for m in range(3, 102, 2):
            cfg, _ = zeta_mod._exp_route_setup(m, DEFAULT_PRECISION)
            guard = cfg.working_digits - DEFAULT_PRECISION.working_digits
            coeffs = zeta_mod.exp_kernel_polynomial(m)
            assert guard >= _fixed_point_error_digits(m, coeffs), m

    def test_exp_guard_covers_horner_cancellation(self):
        # C_m has real roots in (0, 1), so the pointwise ratio
        # sum |c_k| q^k / |C_m(q)| is unbounded; the guard must cover the
        # envelope's rise over the kernel's own peak
        for m in range(3, 62, 2):
            cfg, _ = zeta_mod._exp_route_setup(m, DEFAULT_PRECISION)
            guard = cfg.working_digits - DEFAULT_PRECISION.working_digits
            coeffs = zeta_mod.exp_kernel_polynomial(m)
            assert guard >= _envelope_condition_digits(m, coeffs), m

    @pytest.mark.parametrize("route", ["exp", "asech"])
    @pytest.mark.parametrize("digits, m", _PRECISION_GRID)
    def test_precision_grid(self, route, digits, m):
        cfg = PrecisionConfig(target_digits=digits, working_digits=digits + 20)
        compute = {"exp": zeta_via_exp_kernel, "asech": zeta_via_asech_kernel}[route]
        got = compute(m, cfg)
        with mp.workdps(digits + 30):
            want = mp.zeta(m)
            assert abs(got - want) <= mp.mpf(10) ** -digits * want

    def test_asech_guard_rounds_loss_up_to_tens(self):
        # pi^(m-1) sum |tau_j| is 0.15, 0.62, 1.1, 2.6, 9.6, 10.1, 14.7
        # and 24.7 digits at these degrees
        got = {
            m: zeta_mod._asech_guard(m, tau_row(m).taus.values())
            for m in (3, 5, 7, 13, 41, 43, 61, 101)
        }
        assert got == {3: 0, 5: 0, 7: 10, 13: 10, 41: 10, 43: 20, 61: 20, 101: 30}

    @pytest.mark.parametrize("m", [2, 4, 1, 0])
    def test_exp_kernel_domain(self, m):
        with pytest.raises(ValueError):
            zeta_via_exp_kernel(m)

    @pytest.mark.parametrize("m", [2, 4, 1])
    def test_asech_kernel_domain(self, m):
        with pytest.raises(ValueError):
            zeta_via_asech_kernel(m)


class TestZetaReport:
    def test_structure_and_pass(self):
        rep = zeta_report(5, DEFAULT_PRECISION)
        assert rep.m == 5
        assert rep.passed
        assert rep.max_abs_diff < rep.tolerance
        assert abs(rep.reference - mp.zeta(5)) < mp.mpf("1e-29")
        assert abs(rep.via_exp_kernel - rep.via_asech_kernel) <= rep.max_abs_diff

    def test_explicit_tolerance(self):
        rep = zeta_report(3, DEFAULT_PRECISION, tolerance=mp.mpf("1e-5"))
        assert rep.tolerance == mp.mpf("1e-5")
        assert rep.passed

    @pytest.mark.parametrize("m", [61, 101])
    def test_cancelling_degrees_pass_at_30_digits(self, m):
        rep = zeta_report(m, PrecisionConfig(target_digits=30, working_digits=50))
        assert rep.passed
        assert rep.max_abs_diff < mp.mpf(10) ** -30

    def test_impossible_tolerance_fails_cleanly(self):
        rep = zeta_report(3, DEFAULT_PRECISION, tolerance=mp.mpf("1e-80"))
        assert not rep.passed

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta_report(4)


class TestLinearForm:
    KNOWN = {
        1: ((Fraction(7),), Fraction(1)),
        2: ((Fraction(7, 3), Fraction(31)), Fraction(1)),
        3: ((Fraction(56, 45), Fraction(62, 3), Fraction(127)), Fraction(1)),
    }

    @pytest.mark.parametrize("n", sorted(KNOWN))
    def test_small_forms(self, n):
        form = linear_form(n)
        thetas, theta_next = self.KNOWN[n]
        assert form.n == n
        assert form.thetas == thetas
        assert form.theta_next == theta_next

    def test_top_theta_inverts_top_tau(self):
        for n in (1, 2, 3, 4, 5):
            form = linear_form(n)
            assert form.thetas[-1] == 1 / tau_top(n)
            assert form.theta_next == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residual(self, n):
        form = linear_form(n)
        assert linear_form_residual(form, DEFAULT_PRECISION) < mp.mpf("1e-20")

    def test_domain(self):
        with pytest.raises(ValueError):
            linear_form(0)

    def test_degenerate_top_row_telescopes_to_zero(self):
        rows = [[Fraction(1, 7)], [Fraction(-1, 93), Fraction(0)]]
        thetas, theta_next = zeta_mod._solve_telescoping(rows)
        assert thetas == [Fraction(7, 93), Fraction(1)]
        assert theta_next == 0

    def test_degenerate_residual_is_pure_relation(self):
        form = LinearForm(
            n=2, thetas=(Fraction(7, 93), Fraction(1)), theta_next=Fraction(0)
        )
        # synthetic: 7/93 zeta(3)/pi^2 + zeta(5)/pi^4 is not actually zero,
        # so the residual must be the plain absolute value of the left side
        res = linear_form_residual(form, DEFAULT_PRECISION)
        expected = abs(
            mp.mpf(7) / 93 * mp.zeta(3) / mp.pi**2 + mp.zeta(5) / mp.pi**4
        )
        assert abs(res - expected) < mp.mpf("1e-25")

    def test_interior_zero_diagonal_is_rejected(self):
        rows = [[Fraction(0)], [Fraction(1), Fraction(1)]]
        with pytest.raises(ArithmeticError):
            zeta_mod._solve_telescoping(rows)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            zeta_mod._solve_telescoping([[Fraction(1), Fraction(2)]])


class TestDimensionScan:
    def test_structure(self):
        report = dimension_scan(20)
        assert len(report.rows) == 20
        for row in report.rows:
            assert row.m == 2 * row.n + 1
            assert row.tau_value == tau_top(row.n)
            assert row.is_zero == (row.tau_value == 0)

    def test_all_nonzero_in_range(self):
        report = dimension_scan(20)
        assert report.all_nonzero
        assert report.zeros() == []
        assert report.summary().startswith("all top coefficients nonzero")
        assert "not a proof" in report.summary()

    def test_synthetic_zero_report(self):
        report = ScanReport(
            rows=(
                ScanRow(n=1, m=3, tau_value=Fraction(1, 7), is_zero=False),
                ScanRow(n=2, m=5, tau_value=Fraction(0), is_zero=True),
            )
        )
        assert not report.all_nonzero
        assert report.zeros() == [2]
        assert "n = 2" in report.summary()
        assert "relation" in report.summary()

    def test_domain(self):
        with pytest.raises(ValueError):
            dimension_scan(0)


class TestMomentSequence:
    def test_matches_integrals_and_decreases(self):
        seq = in_sequence_report(5, DEFAULT_PRECISION)
        assert [n for n, _ in seq] == [1, 2, 3, 4, 5]
        for n, value in seq:
            assert value == integral_In(n, DEFAULT_PRECISION).value
        values = [v for _, v in seq]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 0 for v in values)

    def test_domain(self):
        with pytest.raises(ValueError):
            in_sequence_report(0)
