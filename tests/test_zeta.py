import gc
import math
import weakref
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import zetaodd.cli
import zetaodd.quadrature as quadrature
import zetaodd.zeta as zeta_mod
from zetaodd.hyperbolic import dimension_scan, linear_form, tau_row, tau_top
from zetaodd.quadrature import (
    DEFAULT_PRECISION,
    PrecisionConfig,
    _fixed_bits,
    _node_depth,
    _ts_level_columns,
    integral_In,
    integral_In_crosscheck,
)
from zetaodd.verify import _kernel_by_weights
from zetaodd.weights import back_substitute, solve_weights, triangular_system
from zetaodd.zeta import (
    in_sequence_report,
    linear_form_residual,
    zeta3_exp_integral,
    zeta_reference,
    zeta_report,
    zeta_via_asech_kernel,
    zeta_via_exp_kernel,
)

from test_quadrature import _reading_bound, _textbook_columns, _textbook_nodes


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


def _guard(m):
    cfg, *_ = zeta_mod._degree_setup(m, DEFAULT_PRECISION)
    return cfg.working_digits - DEFAULT_PRECISION.working_digits


def _mix_bound(abs_coeffs, b, x, e_b, e_x):
    """Units of 2^-P by which sum_i c_i p_i may miss sum_i c_i b x^i,
    p_i = round(p_(i-1) x) from p_0 = b (_degree_setup):
    sum_i |c_i| (x^i e_b + i b x^(i-1) e_x + min(i, 1/(1-x))/2)."""
    bound = 0
    power = 1  # x^(i-1) for i >= 1
    cap = 1 / (1 - x) if x < 1 else math.inf
    for i, c in enumerate(abs_coeffs):
        if i:
            bound += c * (power * x * e_b + i * b * power * e_x + min(i, cap) / 2)
            power *= x
        else:
            bound += c * e_b
    return bound


def _member_bound(route, coeffs, member):
    """_mix_bound at a textbook member (u, 1 - u, w, ln(1/u), asech(u))
    for the route's kernel coefficients ``coeffs``."""
    u, d, w, log_recip, asech = member
    reading = _reading_bound(route, u, w * d / log_recip, w * u / asech)
    return _mix_bound([abs(c) for c in coeffs], *reading)


# t_max < 8 for targets under 1000 (integral_In's bound on h times a level)
_T_MAX = 8.0


def _float_member(t):
    """(u, Fe, Fa) at the tanh-sinh node t in floats, ln(1/u) and asech(u)
    from q = exp(-pi sinh |t|) without cancellation; 0 weights once q
    underflows."""
    two_s = math.pi * math.sinh(abs(t))
    q = math.exp(-two_s)
    w = math.pi * math.cosh(t) * q / (1 + q) ** 2
    if q == 0.0:
        return (1.0 if t > 0 else 0.0), 0.0, 0.0
    if t > 0:
        u, gap, log_recip = 1 / (1 + q), q / (1 + q), math.log1p(q)
        asech = 2 * math.asinh(math.sqrt(q / 2))  # acosh(1 + q)
    else:
        u, gap, log_recip = q / (1 + q), 1 / (1 + q), two_s + math.log1p(q)
        asech = log_recip + math.log1p(math.sqrt((1 - u) * (1 + u)))
    return u, w * gap / log_recip, w * u / asech


def _power_sum_error_digits(route, m, n=400):
    """log10 of the route's power-sum error over a level, counted in
    units of 2^-P and held to the guard as if they were 2^-p
    (_degree_setup), over its integral: the step h times _mix_bound summed over a
    level's members is the integral over t in [-t_max, t_max] of the
    member bound (midpoint rule, n points), and the integrals are
    zeta(m) D / pi^(m-1) (asech) and zeta(m) (2^m - 1) (m-1)! E /
    (2 pi)^(m-1) (exp, coefficients scaled by E)."""
    cfg, exp_kernel, exp_denom, asech_kernel, denom = zeta_mod._degree_setup(m, DEFAULT_PRECISION)
    coeffs = [abs(c) for c in (exp_kernel if route == "exp" else asech_kernel).coeffs]
    step = 2 * _T_MAX / n
    total = 0.0
    for k in range(n):
        u, fe, fa = _float_member(-_T_MAX + (k + 0.5) * step)
        total += _mix_bound(coeffs, *_reading_bound(route, u, fe, fa))
    log_zeta = math.log10(float(mp.zeta(m)))
    if route == "exp":
        log_integral = (log_zeta + math.log10(2**m - 1) + math.lgamma(m) / math.log(10)
                        + math.log10(exp_denom) - (m - 1) * math.log10(2 * math.pi))
    else:
        log_integral = log_zeta + math.log10(denom) - (m - 1) * math.log10(math.pi)
    return math.log10(total * step) - log_integral


class TestReference:
    """Route 1 is mpmath's zeta at digits + 15: these pin its contract,
    the precision it returns and its domain."""

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

    @pytest.mark.parametrize("route", [zeta_via_exp_kernel, zeta_via_asech_kernel],
                             ids=lambda f: f.__name__)
    def test_small_targets_converge(self, route):
        # the asech route stalled at targets 2..5 before the node depth
        # was floored at target 8
        for target in range(1, 16):
            got = route(3, PrecisionConfig(target, target + 10))
            assert abs(got - mp.zeta(3)) <= mp.mpf(10) ** -target

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
        # the route's member mix, fed the columns of a node q with w = 1
        # (U = q and Fe = (1-q)/ln(1/q) at P bits; the reading forms
        # G = 1/(1+q)) and divided by E, is the q-form kernel
        # -(d/L) C_m(q)/(q (1+q)^m); it must equal the half-line
        # weight-sum form it came from, K(u)/q at u = L, on both sides
        # of q = 1/2 (u = ln 2).  The oracle runs
        # with the old weight-cancellation guard on top of the route's
        # precision, plus log10(1/q) digits: at large u its sum_l w_l = 0
        # cancels to O(q).  The tolerance is relative to the oracle's
        # rounding envelope sum |c_k| q^(k-1) times (d/L)/(1+q)^m, widened
        # by the mix's own error (_member_bound)
        cfg, kernel, denom, _, _ = zeta_mod._degree_setup(m, DEFAULT_PRECISION)
        eval_dps = cfg.eval_digits
        prec = _fixed_bits(eval_dps)
        abs_coeffs = [abs(x) for x in zeta_mod.exp_kernel_polynomial(m)[:0:-1]]
        wv = solve_weights(m).weights
        old_guard = len(str(int(max(abs(w) for w in wv) * m))) + 2
        with mp.workdps(eval_dps + 20):
            points = (
                mp.mpf("1e-40"), mp.mpf("1e-3"), mp.mpf("0.5"),
                mp.ln2 - mp.mpf("1e-30"), mp.ln2, mp.ln2 + mp.mpf("1e-30"),
                mp.mpf(7), mp.mpf(10) ** 4,
            )
        for u in points:
            with mp.workdps(eval_dps + 20):
                q, d = mp.exp(-u), -mp.expm1(-u)
                member = (q, d, mp.mpf(1), u, mp.asech(q))
                got = mp.ldexp(kernel.member(_textbook_columns(member, prec), prec), -prec) / denom
                envelope = d / u / (1 + q) ** m * mp.polyval(abs_coeffs, q)
                mix = mp.ldexp(_member_bound("exp", kernel.coeffs, member), -prec) / denom
            with mp.workdps(eval_dps + old_guard + int(u / mp.ln10)):
                weights = tuple(mp.mpf(w.numerator) / w.denominator for w in wv)
                want = _exp_kernel_two_exponentials(u, weights) / mp.exp(-u)
            with mp.workdps(eval_dps):
                tol = mp.mpf(10) ** (5 - eval_dps)
                assert abs(got - want) <= tol * envelope + mix, u

    @pytest.mark.parametrize("m", [3, 13, 41])
    def test_asech_term_matches_its_kernel(self, m):
        # the route's member mix, fed the columns of a node u with w = 1
        # (u and Fa = u/asech(u) at P bits; the reading forms X = u^2), is
        # u A_m(u^2)/asech(u), within the columns' truncation and the
        # powers' rounding (_member_bound)
        cfg, _, _, kernel, _ = zeta_mod._degree_setup(m, DEFAULT_PRECISION)
        prec = _fixed_bits(cfg.eval_digits)
        coeffs = zeta_mod.asech_kernel_polynomial(m)[0]
        for u in ("1e-30", "1e-3", "0.5", "0.9", "0.999", "0.999999"):
            with mp.workdps(cfg.eval_digits + 20):
                u = mp.mpf(u)
                member = (u, 1 - u, mp.mpf(1), -mp.log(u), mp.asech(u))
                got = kernel.member(_textbook_columns(member, prec), prec)
                want = mp.ldexp(u * mp.polyval(coeffs[::-1], u * u) / mp.asech(u), prec)
                assert abs(got - want) <= _member_bound("asech", coeffs, member), u

    def test_exp_guard_covers_fixed_point_horner(self):
        # the exp guard g(m) = digits(sum |c_k|) - digits(|C_m(1)|) +
        # digits(m) + 5 was derived for Horner's rule on D_m in q, and is
        # kept (_degree_setup): D_m's fixed-point error at q is at most
        # (m + sum (k-1) |c_k| q^(k-2)) 2^-prec; integrated against the
        # kernel's weight and divided by the integral itself it must stay
        # below the guard, for every admitted degree
        for m in range(3, 102, 2):
            guard = _guard(m)
            coeffs = zeta_mod.exp_kernel_polynomial(m)
            assert guard >= _fixed_point_error_digits(m, coeffs), m

    def test_exp_guard_covers_horner_cancellation(self):
        # C_m has real roots in (0, 1), so the pointwise ratio
        # sum |c_k| q^k / |C_m(q)| is unbounded; the guard must cover the
        # envelope's rise over the kernel's own peak, the cancellation
        # any reading of the kernel from C_m's coefficients meets
        for m in range(3, 62, 2):
            guard = _guard(m)
            coeffs = zeta_mod.exp_kernel_polynomial(m)
            assert guard >= _envelope_condition_digits(m, coeffs), m

    def test_exp_guard_covers_power_sums(self):
        # the exp reading's power-sum error over a level (its powers'
        # rounding, its base's and point's truncations, the columns'),
        # over the integral itself, stays below the degree's guard for
        # every admitted degree: 2.1 digits at m = 3 and 27.6 at m = 101
        # against g(m) = 6 and 28, and 22.98 against 23 at m = 83.  The bound takes |s_i|, so it covers
        # the alternation of the s_i too
        for m in range(3, 102, 2):
            assert _guard(m) >= _power_sum_error_digits("exp", m), m

    @pytest.mark.parametrize("route", ["exp", "asech"])
    @pytest.mark.parametrize("digits, m", _PRECISION_GRID)
    def test_precision_grid(self, route, digits, m):
        cfg = PrecisionConfig(target_digits=digits, working_digits=digits + 20)
        compute = {"exp": zeta_via_exp_kernel, "asech": zeta_via_asech_kernel}[route]
        got = compute(m, cfg)
        with mp.workdps(digits + 30):
            want = mp.zeta(m)
            assert abs(got - want) <= mp.mpf(10) ** -digits * want

    def test_guard_covers_asech_kernel(self):
        # the one guard per degree must cover the asech reading's
        # power-sum error over a level, over the integral itself, as for
        # exp: 1.3 digits at m = 3 and 26.9 at m = 101
        for m in range(3, 102, 2):
            assert _guard(m) >= _power_sum_error_digits("asech", m), m

    def test_asech_kernel_polynomial(self):
        # tau(2, 3) = 1/7; tau(2, 5) = -1/93 and tau(3, 5) = 1/31
        assert zeta_mod.asech_kernel_polynomial(3) == ((1,), 7)
        assert zeta_mod.asech_kernel_polynomial(5) == ((-1, 3), 93)
        for m in (3, 13, 41):
            coeffs, denom = zeta_mod.asech_kernel_polynomial(m)
            taus = tau_row(m)
            assert [Fraction(a, denom) for a in coeffs] == [taus[j] for j in sorted(taus)]
            assert math.gcd(denom, *coeffs) == 1

    @pytest.mark.parametrize("m, digits", [(3, 100), (13, 100), (41, 30), (101, 30)])
    def test_asech_kernel_matches_moment_sum(self, m, digits):
        # the collapsed kernel against the paper's pairing, summed moment
        # by moment, each moment 30 digits past the target to absorb the
        # pairing's cancellation (24.7 digits at m = 101).  The route
        # keeps the caller's node depth, so it misses the mass beyond the
        # outermost node, about 0.4 m sqrt(2) 10^-(target + 3.5) relative.
        # integral_In sums the same integer columns as the route, so the
        # moments come from Gauss-Legendre (integral_In_crosscheck), which
        # shares no node with it
        got = zeta_via_asech_kernel(m, PrecisionConfig(digits, digits + 20))
        dps = digits + 40
        with mp.workdps(dps):
            want = mp.pi ** (m - 1) * sum(
                mp.mpf(t.numerator) / t.denominator * integral_In_crosscheck(j - 1, dps)[0]
                for j, t in tau_row(m).items()
            )
            assert abs(got - want) <= m * mp.mpf(10) ** -(digits + 3) * want

    @settings(max_examples=12, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(digits=st.integers(15, 80), m=st.integers(1, 30).map(lambda k: 2 * k + 1))
    def test_precision_contract(self, digits, m):
        cfg = PrecisionConfig(target_digits=digits, working_digits=digits + 20)
        for route in (zeta_via_exp_kernel, zeta_via_asech_kernel):
            got = route(m, cfg)
            with mp.workdps(digits + 30):
                want = mp.zeta(m)
                assert abs(got - want) <= mp.mpf(10) ** -digits * want, route.__name__

    @pytest.mark.parametrize("m", [2, 4, 100, 1, 0, -3])
    def test_exp_kernel_polynomial_domain(self, m):
        with pytest.raises(ValueError):
            zeta_mod.exp_kernel_polynomial(m)

    @pytest.mark.slow
    def test_eulerian_kernel_matches_weights_beyond_check_11(self):
        # verify check 11 covers odd m <= 61; the Eulerian C_m must equal
        # the Horner pass over the triangular solve's weights up to the
        # largest degree the CLI admits, every degree back-substituted
        # from one system
        system = triangular_system(101)
        for m in range(63, 102, 2):
            want = _kernel_by_weights(back_substitute(system, m).weights)
            assert zeta_mod.exp_kernel_polynomial(m) == want, m

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

    @pytest.mark.parametrize("m", [61, 101])
    def test_cancelling_degrees_pass_at_30_digits(self, m):
        rep = zeta_report(m, PrecisionConfig(target_digits=30, working_digits=50))
        assert rep.passed
        assert rep.max_abs_diff < mp.mpf(10) ** -30

    @pytest.mark.parametrize("m, digits", [(3, 100), (13, 100), (41, 30)])
    def test_routes_share_one_node_build(self, m, digits):
        # both routes run at the degree's one precision and the caller's
        # depth, so each node level (7 of them here) is built once
        _ts_level_columns.cache_clear()
        before = _ts_level_columns.cache_info().misses
        zeta_report(m, PrecisionConfig(target_digits=digits, working_digits=digits + 20))
        assert _ts_level_columns.cache_info().misses - before == 7

    def test_routes_share_one_degree_setup(self):
        # the guard and both kernels are built once per report
        zeta_mod._degree_setup.cache_clear()
        zeta_report(13, DEFAULT_PRECISION)
        assert zeta_mod._degree_setup.cache_info().misses == 1

    def test_impossible_tolerance_fails_cleanly(self, monkeypatch):
        # one route 1e-20 off, far outside the default 10^-(target - 5)
        real = zeta_mod.zeta_via_exp_kernel
        monkeypatch.setattr(
            zeta_mod, "zeta_via_exp_kernel", lambda m, cfg: real(m, cfg) + mp.mpf("1e-20")
        )
        rep = zeta_report(3, DEFAULT_PRECISION)
        assert rep.tolerance == mp.mpf(10) ** -(DEFAULT_PRECISION.target_digits - 5)
        assert rep.passed is False
        assert rep.max_abs_diff > rep.tolerance

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta_report(4)


def _route_kernel(route, m, cfg):
    """The route's degree precision and its PowerSumKernel."""
    cfg, exp_kernel, _, asech_kernel, _ = zeta_mod._degree_setup(m, cfg)
    return cfg, exp_kernel if route == "exp" else asech_kernel


class TestIntegerLevelSums:
    """The routes sum their levels in integers, from power sums shared by
    every degree (integrate_01_fixed, PowerSumKernel); their mpf kernels
    at the textbook nodes are the oracle, member by member."""

    @pytest.mark.parametrize("route", ["exp", "asech"])
    @pytest.mark.parametrize("digits, m", _PRECISION_GRID)
    def test_matches_mpf_path(self, route, digits, m):
        # at each member of levels 0 and 1 of the route's own node table,
        # the member's base * point^i mix against w times the mpf kernel
        # at the textbook node 20 digits higher, within _member_bound.
        # The exp oracle is the Eulerian q-form -(d/L) C_m(q)/(q (1+q)^m),
        # times E, so the peel into z is checked along with the reading
        cfg, kernel = _route_kernel(route, m, PrecisionConfig(digits, digits + 20))
        prec = _fixed_bits(cfg.eval_digits)
        depth = _node_depth(cfg)
        if route == "exp":
            eulerian = zeta_mod.exp_kernel_polynomial(m)
            poly, denom = eulerian[:0:-1], zeta_mod._sech_row(eulerian)[1]
        else:
            poly = zeta_mod.asech_kernel_polynomial(m)[0][::-1]
        for level in (0, 1):
            got = _ts_level_columns(cfg.eval_digits, depth, level)
            want = _textbook_nodes(cfg.eval_digits + 20, depth, level)
            assert len(got) == len(want)
            with mp.workdps(cfg.eval_digits + 20):
                for pair, exact in zip(got, want):
                    for columns, (u, d, w, log_recip, asech) in zip(pair, exact):
                        if route == "exp":
                            value = -denom * w * d / log_recip * mp.polyval(poly, u) * (1 + u) ** -m
                        else:
                            value = w * u / asech * mp.polyval(poly, u * u)
                        bound = _member_bound(route, kernel.coeffs, (u, d, w, log_recip, asech))
                        got_member = kernel.member(columns, prec)
                        assert abs(got_member - mp.ldexp(value, prec)) <= bound, (level, u)

    def test_node_memo_holds_the_integer_columns(self):
        # after zeta_report at three precisions the node memo is within
        # its bound and holds only integer columns
        _ts_level_columns.cache_clear()
        configs = [PrecisionConfig(d, d + 20) for d in (15, 30, 100)]
        for cfg in configs:
            zeta_report(13, cfg)
        info = _ts_level_columns.cache_info()
        assert info.currsize <= quadrature._NODE_TABLES_KEPT
        assert info.currsize == info.misses
        cfg, *_ = zeta_mod._degree_setup(13, configs[-1])
        one = 1 << _fixed_bits(cfg.eval_digits)
        for level in range(3):
            pairs = _ts_level_columns(cfg.eval_digits, _node_depth(cfg), level)
            assert pairs
            for minus, plus in pairs:
                assert len(minus) == len(plus) == 3
                assert all(type(c) is int for c in minus + plus)
                assert minus[0] + plus[0] == one
        assert _ts_level_columns.cache_info().misses == info.misses


def _clear_route_state():
    """Forget every node table with its power sums, and the degree setup."""
    _ts_level_columns.cache_clear()
    zeta_mod._degree_setup.cache_clear()


class TestPowerSums:
    """Each node table carries, per reading, S_i = sum over members of
    base * point^i, grown to the largest degree asked for and shared by
    every degree and both routes' calls."""

    ROUTES = (zeta_via_exp_kernel, zeta_via_asech_kernel)

    def test_sech_row_is_the_peeled_eulerian_row(self):
        # C_3 = -2q = (1+q)^2 (-2 y); C_5 = 2q - 20q^2 + 2q^3 peels to
        # r = (0, 2, -24), s = (2, -6); n_i = -E s_i
        assert zeta_mod._sech_row(zeta_mod.exp_kernel_polynomial(3)) == ((2,), 1)
        assert zeta_mod._sech_row(zeta_mod.exp_kernel_polynomial(5)) == ((-2, 6), 1)
        # s_i = c_m a_i with c_101 = -1/2 (verify check 11 has every m)
        coeffs, denom = zeta_mod._sech_row(zeta_mod.exp_kernel_polynomial(101))
        assert denom == 2
        assert coeffs == zeta_mod.asech_kernel_polynomial(101)[0]

    @pytest.mark.parametrize("first, then", [(41, 13), (13, 41)])
    def test_values_do_not_depend_on_history(self, first, then):
        # 57 working digits put m = 13 and 41 on one eval precision, so
        # the second degree reads sums the first one grew (41 past 13's
        # degree 5, or 13 before 41 extends them); each route's value is
        # bit for bit the cold one
        cfg = PrecisionConfig(30, 57)
        setups = [zeta_mod._degree_setup(m, cfg)[0] for m in (first, then)]
        assert setups[0].eval_digits == setups[1].eval_digits
        _clear_route_state()
        cold = [route(then, cfg) for route in self.ROUTES]
        _clear_route_state()
        for route in self.ROUTES:
            route(first, cfg)
        table = _ts_level_columns(setups[0].eval_digits, _node_depth(setups[0]), 0)
        assert {len(sums.sums) for sums in table.power_sums.values()} == {(first - 1) // 2}
        assert [route(then, cfg) for route in self.ROUTES] == cold

    def test_a_sweep_computes_each_power_once(self, monkeypatch):
        # zeta_report for odd m 3..41 at 30 digits: every (table, reading)
        # is read once, and each of its powers is formed once, however
        # many degrees and routes read it
        steps = {}
        built = []
        real_next, real_init = quadrature._next_powers, quadrature._PowerSums.__init__

        def counting_next(powers, points, prec):
            steps[id(points)] = steps.get(id(points), 0) + 1
            return real_next(powers, points, prec)

        def recording_init(self, table, reading, prec):
            real_init(self, table, reading, prec)
            built.append((table, reading, self))

        monkeypatch.setattr(quadrature, "_next_powers", counting_next)
        monkeypatch.setattr(quadrature._PowerSums, "__init__", recording_init)
        _clear_route_state()
        for m in range(3, 42, 2):
            assert zeta_report(m, PrecisionConfig(30, 50)).passed
        assert _ts_level_columns.cache_info().currsize == _ts_level_columns.cache_info().misses
        assert len({(id(table), reading) for table, reading, _ in built}) == len(built)
        assert all(table.power_sums[reading] is sums for table, reading, sums in built)
        assert sum(steps.values()) == sum(len(sums.sums) - 1 for _, _, sums in built)
        for _, _, sums in built:
            assert steps.get(id(sums.points), 0) == len(sums.sums) - 1
        # the highest degree read is 41's: (41 - 3) / 2
        assert max(len(sums.sums) for _, _, sums in built) == 20

    def test_sums_are_bounded_and_evicted_with_their_tables(self, monkeypatch):
        live = weakref.WeakSet()
        real_init = quadrature._PowerSums.__init__

        def recording_init(self, *args):
            real_init(self, *args)
            live.add(self)

        monkeypatch.setattr(quadrature._PowerSums, "__init__", recording_init)
        _clear_route_state()
        for digits in (15, 30, 100):
            zeta_report(13, PrecisionConfig(digits, digits + 20))
        gc.collect()
        kept = _ts_level_columns.cache_info().currsize
        assert 0 < len(live) <= len(self.ROUTES) * kept <= 2 * quadrature._NODE_TABLES_KEPT
        # a sweep of precisions evicts tables; their sums go with them
        for target in range(1, quadrature._NODE_TABLES_KEPT + 2):
            zeta_via_asech_kernel(3, PrecisionConfig(target, target + 10))
        gc.collect()
        assert len(live) <= len(self.ROUTES) * _ts_level_columns.cache_info().currsize
        _ts_level_columns.cache_clear()
        gc.collect()
        assert len(live) == 0

    @pytest.mark.parametrize("route", ["exp", "asech"])
    @pytest.mark.parametrize("m", [3, 41, 101])
    @pytest.mark.parametrize("digits", [15, 100, 300])
    def test_level_is_the_sum_of_its_members(self, route, m, digits):
        # the integrator takes a level's total from the shared power sums
        # and the outermost pair's term from member, one member at a
        # time; member rounds each power as the sums do, so over a whole
        # table the two agree exactly, on the route's own node tables
        cfg, kernel = _route_kernel(route, m, PrecisionConfig(digits, digits + 20))
        prec = _fixed_bits(cfg.eval_digits)
        for level in range(3):
            table = _ts_level_columns(cfg.eval_digits, _node_depth(cfg), level)
            members = sum(kernel.member(columns, prec) for pair in table for columns in pair)
            assert kernel.level(table, prec) == members, level


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

    def test_deep_moment_against_zeta_sums(self):
        # I_20 from the exact form and zeta_reference alone, no
        # quadrature on that side, against integral_In at 100 digits
        # (7.3e-104 measured)
        cfg = PrecisionConfig(100, 120)
        assert linear_form_residual(linear_form(20), cfg) <= mp.mpf(10) ** -95

    @pytest.mark.parametrize(
        "n,digits",
        [(1, 15), (10, 100), (50, 30), (100, 300), (200, 30), (200, 100), (400, 60),
         (400, 300)],
    )
    def test_theta_sum_is_a_second_route_to_the_moment(self, n, digits):
        # I_n = sum_K theta_K zeta(2K+1)/pi^(2K) reads zeta_reference and
        # the closed thetas, no node and no tau; every theta is positive,
        # so the sum does not cancel.  Relative to I_n, at 15..300 digits
        # (1.2e-18, 2.6e-103, 5.7e-33, 3.7e-303, 7.4e-33, 6.7e-103,
        # 5.5e-63 and 7.3e-303 measured, in order)
        cfg = PrecisionConfig(digits, digits + 20)
        residual = linear_form_residual(linear_form(n), cfg)
        with mp.workdps(cfg.eval_digits):
            assert residual / integral_In(n, cfg).value <= mp.mpf(10) ** -digits

    def test_thetas_positive(self):
        # proved (linear_form's docstring): |e_(K-1)| is an elementary
        # symmetric sum of the positive 4j^2, so no zeta sum for I_n
        # cancels
        for n in range(1, 51):
            assert all(theta > 0 for theta in linear_form(n).thetas)

    def test_domain(self):
        with pytest.raises(ValueError):
            linear_form(0)


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
        assert report.summary().startswith("all top coefficients nonzero")
        assert "not a proof" in report.summary()

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


class TestNoWeightSolve:
    """The zeta routes, tau_row and linear_form read integer closed forms
    only: no weight solve and no generalized Bernoulli row.  Every
    zetaodd module that holds solve_weights is wrapped, and so is the
    row builder that every Bernoulli number goes through."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting(name, real):
            def counted(*args):
                calls.append((name, args))
                return real(*args)
            return counted

        real = zetaodd.solve_weights
        for module in (zetaodd, zetaodd.weights, zetaodd.zeta, zetaodd.verify, zetaodd.cli):
            if getattr(module, "solve_weights", None) is real:
                monkeypatch.setattr(module, "solve_weights", counting("solve_weights", real))
        monkeypatch.setattr(
            zetaodd.bernoulli, "_row_terms", counting("_row_terms", zetaodd.bernoulli._row_terms)
        )
        return calls

    @pytest.mark.parametrize(
        "route", [zeta_report, zeta_via_exp_kernel, zeta_via_asech_kernel],
        ids=lambda f: f.__name__,
    )
    def test_zeta_routes(self, calls, route):
        route(13, DEFAULT_PRECISION)
        assert calls == []

    def test_tau_row(self, calls):
        tau_row(101)
        assert calls == []

    def test_linear_form(self, calls):
        linear_form(50)
        assert calls == []

    def test_the_wrapper_sees_a_weight_solve(self, calls):
        # solve_weights is a closed form; the paper's system reads the rows
        zetaodd.weights.solve_weights(3)
        assert calls == [("solve_weights", (3,))]
        zetaodd.weights.triangular_system(3)
        assert ("_row_terms", (2,)) in calls
