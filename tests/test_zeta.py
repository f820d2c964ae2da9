import math
from fractions import Fraction
from functools import partial

import mpmath as mp
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import zetaodd.cli
import zetaodd.quadrature as quadrature
import zetaodd.zeta as zeta_mod
from zetaodd.hyperbolic import tau_row, tau_top
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

from test_quadrature import _textbook_nodes


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
    cfg, _, _, _ = zeta_mod._degree_setup(m, DEFAULT_PRECISION)
    return cfg.working_digits - DEFAULT_PRECISION.working_digits


def _asech_error_digits(m, moments):
    """log10 of the asech kernel's error envelope over its integral
    zeta(m) D / pi^(m-1), with A_m = sum_i a_i x^i and I_n = moments[n]:
    sum_i |a_i| I_(i+1), the integral of |u A_m(u^2)| / asech(u) that
    every rounding of the kernel and of the sum scales with, plus the
    fixed-point Horner error at x = u^2, at most
    (k + 2 sum_i i |a_i| x^(i-1)) 2^-p for degree k, weighted by
    u / asech(u) into k I_1 + 2 sum_i i |a_i| I_i."""
    coeffs, denom = zeta_mod.asech_kernel_polynomial(m)
    with mp.workdps(20):
        envelope = sum(abs(a) * moments[i + 1] for i, a in enumerate(coeffs))
        fixed = (len(coeffs) - 1) * moments[1] + 2 * sum(
            i * abs(a) * moments[i] for i, a in enumerate(coeffs) if i
        )
        integral = mp.zeta(m) * denom / mp.pi ** (m - 1)
        return float(mp.log10((envelope + fixed) / integral))


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
        # the route's integer term, fed the columns of a node q with
        # w = 1 (U = q, G = 1/(1+q), Fe = (1-q)/ln(1/q) at P bits), is the
        # q-form kernel -(d/L) D_m(q)/(1+q)^m; it must equal the
        # half-line weight-sum form it came from, K(u)/q at u = L, on
        # both sides of q = 1/2 (u = ln 2).  The oracle runs with the old
        # weight-cancellation guard on top of the route's precision, plus
        # log10(1/q) digits: at large u its sum_l w_l = 0 cancels to
        # O(q).  The tolerance is relative to Horner's rounding envelope
        # sum |c_k| q^(k-1) times (d/L)/(1+q)^m, widened by the columns'
        # and the integer Horner's truncation (_term_error_bound)
        cfg, coeffs, _, _ = zeta_mod._degree_setup(m, DEFAULT_PRECISION)
        eval_dps = cfg.eval_digits
        prec = _fixed_bits(eval_dps)
        term = zeta_mod._exp_term(coeffs, prec)
        abs_coeffs = [abs(x) for x in coeffs]
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
                got = mp.ldexp(term(_exact_columns(member, prec)), -prec)
                envelope = d / u / (1 + q) ** m * mp.polyval(abs_coeffs, q)
                truncation = mp.ldexp(_term_error_bound("exp", coeffs, member), -prec)
            with mp.workdps(eval_dps + old_guard + int(u / mp.ln10)):
                weights = tuple(mp.mpf(w.numerator) / w.denominator for w in wv)
                want = _exp_kernel_two_exponentials(u, weights) / mp.exp(-u)
            with mp.workdps(eval_dps):
                tol = mp.mpf(10) ** (5 - eval_dps)
                assert abs(got - want) <= tol * envelope + truncation, u

    @pytest.mark.parametrize("m", [3, 13, 41])
    def test_asech_term_matches_its_kernel(self, m):
        # the route's integer term, fed the columns of a node u with
        # w = 1 (X = u^2, Fa = u/asech(u) at P bits), is
        # u A_m(u^2)/asech(u), within the columns' truncation and
        # Horner's (_term_error_bound)
        cfg, _, coeffs, _ = zeta_mod._degree_setup(m, DEFAULT_PRECISION)
        prec = _fixed_bits(cfg.eval_digits)
        term = zeta_mod._asech_term(coeffs, prec)
        for u in ("1e-30", "1e-3", "0.5", "0.9", "0.999", "0.999999"):
            with mp.workdps(cfg.eval_digits + 20):
                u = mp.mpf(u)
                member = (u, 1 - u, mp.mpf(1), -mp.log(u), mp.asech(u))
                got = term(_exact_columns(member, prec))
                want = mp.ldexp(u * mp.polyval(list(coeffs), u * u) / mp.asech(u), prec)
                assert abs(got - want) <= _term_error_bound("asech", coeffs, member), u

    def test_exp_guard_covers_fixed_point_horner(self):
        # D_m's fixed-point error at q is at most
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
        # envelope's rise over the kernel's own peak
        for m in range(3, 62, 2):
            guard = _guard(m)
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

    def test_guard_covers_asech_kernel(self):
        # the one guard per degree must cover the asech kernel's
        # cancellation and fixed-point Horner error, with the moments
        # taken from the second scheme
        moments = {n: integral_In_crosscheck(n, dps=15)[0] for n in range(1, 52)}
        for m in range(3, 102, 2):
            assert _guard(m) >= _asech_error_digits(m, moments), m

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


def _exact_columns(member, prec):
    """The five columns of a node member (u, 1 - u, w, ln(1/u), asech(u)),
    each truncated to prec fractional bits."""
    u, d, w, log_recip, asech = member
    return tuple(
        int(mp.floor(mp.ldexp(x, prec)))
        for x in (u, 1 / (1 + u), w * d / log_recip, u * u, w * u / asech)
    )


def _term_error_bound(route, coeffs, member):
    """Units of 2^-P by which a route's integer term at a node member may
    differ from w times its mpf kernel there: each column's bound (one
    unit for U, Fe and Fa, two for G, three for X) times the term's slope
    in it, one unit per Horner step, the power's relative error for G^m
    (at most (4m + 2 log2 m) 2^-P, _degree_setup) and two for the last
    shifts.  ``coeffs`` are the route's polynomial, highest first."""
    u, d, w, log_recip, asech = member
    k = len(coeffs)
    value = mp.polyval([abs(c) for c in coeffs], u if route == "exp" else u * u)
    slope = mp.polyval([abs(c) * (k - 1 - i) for i, c in enumerate(coeffs[:-1])] or [0],
                       u if route == "exp" else u * u)
    if route == "exp":
        m = k + 1
        fe, g_power = w * d / log_recip, (1 + u) ** -m
        return g_power * (value * (1 + fe * (8 * m + 2)) + fe * (slope + k)) + 2
    fa = w * u / asech
    return value + fa * (3 * slope + k) + 2


def _route_pair(route, m, cfg):
    """The route's degree precision, its integer kernel and polynomial."""
    cfg, exp_coeffs, asech_coeffs, _ = zeta_mod._degree_setup(m, cfg)
    if route == "exp":
        return cfg, partial(zeta_mod._exp_term, exp_coeffs), exp_coeffs
    return cfg, partial(zeta_mod._asech_term, asech_coeffs), asech_coeffs


class TestIntegerLevelSums:
    """The routes sum their levels in integers (integrate_01_fixed); their
    mpf kernels at the textbook nodes are the oracle, term by term."""

    @pytest.mark.parametrize("route", ["exp", "asech"])
    @pytest.mark.parametrize("digits, m", _PRECISION_GRID)
    def test_matches_mpf_path(self, route, digits, m):
        # at each member of levels 0 and 1 of the route's own node table,
        # the integer term against w times the mpf kernel at the textbook
        # node 20 digits higher, within _term_error_bound
        cfg, kernel, coeffs = _route_pair(route, m, PrecisionConfig(digits, digits + 20))
        prec = _fixed_bits(cfg.eval_digits)
        term = kernel(prec)
        depth = _node_depth(cfg)
        for level in (0, 1):
            got = _ts_level_columns(cfg.eval_digits, depth, level)
            want = _textbook_nodes(cfg.eval_digits + 20, depth, level)
            assert len(got) == len(want)
            with mp.workdps(cfg.eval_digits + 20):
                for pair, exact in zip(got, want):
                    for columns, (u, d, w, log_recip, asech) in zip(pair, exact):
                        if route == "exp":
                            value = -w * d / log_recip * mp.polyval(list(coeffs), u) * (1 + u) ** -m
                        else:
                            value = w * u / asech * mp.polyval(list(coeffs), u * u)
                        bound = _term_error_bound(route, coeffs, (u, d, w, log_recip, asech))
                        assert abs(term(columns) - mp.ldexp(value, prec)) <= bound, (level, u)

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
        cfg, _, _, _ = zeta_mod._degree_setup(13, configs[-1])
        one = 1 << _fixed_bits(cfg.eval_digits)
        for level in range(3):
            pairs = _ts_level_columns(cfg.eval_digits, _node_depth(cfg), level)
            assert pairs
            for minus, plus in pairs:
                assert len(minus) == len(plus) == 5
                assert all(type(c) is int for c in minus + plus)
                assert minus[0] + plus[0] == one
        assert _ts_level_columns.cache_info().misses == info.misses


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
