import math
import signal

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, pi_fixed

import zetaodd.quadrature as quadrature
import zetaodd.zeta as zeta_mod
from zetaodd.hyperbolic import linear_form
from zetaodd.quadrature import (
    DEFAULT_PRECISION,
    NonConvergenceError,
    PowerSumKernel,
    PrecisionConfig,
    TermKernel,
    _COLUMN_GUARD_BITS,
    _NODE_TABLES_KEPT,
    _acosh_ratio,
    _fixed_bits,
    _log1p_ratio,
    _log_fixed,
    _log_ratios,
    _node_depth,
    _pair_columns,
    _power_fixed,
    _series_ratios,
    _ts_level_columns,
    integral_In,
    integral_In_crosscheck,
    integrate_01_fixed,
)
from zetaodd.zeta import linear_form_residual

QUICK = PrecisionConfig(target_digits=20, working_digits=35)

# 40-digit value from the substitution + Gauss-Legendre route
I1_REFERENCE = "0.8525567976350115818470428531923337461160"


@pytest.fixture(autouse=True)
def _high_ambient_dps():
    # expected values in these tests are built from mp constants, which
    # must carry more digits than the tolerances being asserted
    with mp.workdps(60):
        yield


def _close(a, b, eps):
    return abs(mp.mpf(a) - mp.mpf(b)) < mp.mpf(eps)


# -- integer kernels with closed-form integrals ---------------------------
#
# A kernel sees one node member's columns (u, Fe, Fa), with
# Fe = w (1-u)/ln(1/u) and Fa = w u/asech(u).  Frullani's integral gives
# the integral over (0, 1) of (u^(a-1) - u^(b-1))/ln(1/u) as ln(b/a), so
# Fe u^k integrates to ln((k+2)/(k+1)); Fa u^(2n-2) integrates to I_n.


def _fe_power(k):
    """w (1-u) u^k / ln(1/u), integral ln((k+2)/(k+1))."""

    def term(columns, prec):
        u, fe, _ = columns
        return fe * _power_fixed(u, k, prec) >> prec

    return TermKernel(term)


def _fe_inverse_sqrt(factor_g=False):
    """w (1-u) u^(-1/2) / ln(1/u), times 1/(1+u) if ``factor_g``.  Members
    whose u column truncates to 0 (u < 2^-P) give 0: their true term is
    about sqrt(u) < 2^(-P/2)."""

    def term(columns, prec):
        u, fe, _ = columns
        if not u:
            return 0
        t = (fe << prec) // math.isqrt(u << prec)
        if not factor_g:
            return t
        one = 1 << prec
        return t * ((one << prec) // (one + u)) >> prec

    return TermKernel(term)


def _fa_kernel(scale=1):
    """scale * w u/asech(u), integral scale * I_1."""
    return TermKernel(lambda columns, prec: scale * columns[2])


def _fa_x(columns, prec):
    """w u^3/asech(u), integral I_2."""
    u, _, fa = columns
    return fa * (u * u >> prec) >> prec


def _moment_sum(n):
    """I_n as sum_K theta_K zeta(2K+1)/pi^(2K) (linear_form), at the
    ambient precision."""
    return sum(
        mp.mpf(th.numerator) / th.denominator * mp.zeta(2 * k + 1) / mp.pi ** (2 * k)
        for k, th in enumerate(linear_form(n).thetas, start=1)
    )


class TestPrecisionConfig:
    def test_defaults(self):
        assert DEFAULT_PRECISION.target_digits == 30
        assert DEFAULT_PRECISION.working_digits == 50
        assert DEFAULT_PRECISION.eval_digits == 50

    def test_depth_tracks_target(self):
        # the node depth follows the target; the precision does not
        assert _node_depth(PrecisionConfig(40, 100)) == 87
        assert _node_depth(PrecisionConfig(40, 52)) == 87
        assert _node_depth(DEFAULT_PRECISION) == 67
        # below 8 target digits the depth stays at 2 * 8 + 7
        assert _node_depth(PrecisionConfig(2, 12)) == _node_depth(PrecisionConfig(8, 18)) == 23
        assert PrecisionConfig(40, 52).eval_digits == PrecisionConfig(15, 52).eval_digits

    def test_eval_digits_round_working_up_to_tens(self):
        assert PrecisionConfig(30, 51).eval_digits == 60
        assert PrecisionConfig(40, 52).eval_digits == 60
        assert PrecisionConfig(90, 200).eval_digits == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            PrecisionConfig(target_digits=0)
        with pytest.raises(ValueError):
            PrecisionConfig(target_digits=30, working_digits=35)


class TestUnitInterval:
    """Integer kernels on (0, 1) with closed-form integrals."""

    def test_polynomial(self):
        res = integrate_01_fixed(_fe_power(1), QUICK)
        assert _close(res.value, mp.log(mp.mpf(3) / 2), "1e-20")
        assert res.nodes_used > 0
        assert res.levels >= 2

    def test_inverse_sqrt_right_endpoint(self):
        # u/asech(u) ~ 1/sqrt(2 (1-u)) at u = 1
        res = integrate_01_fixed(_fa_kernel(), QUICK)
        assert _close(res.value, 7 * mp.zeta(3) / mp.pi**2, "1e-19")

    def test_inverse_sqrt_left_endpoint(self):
        # (1-u) u^(-1/2)/ln(1/u) integrates to ln 3; the u column is
        # absolute, so the members below 2^-P are dropped (about 10^-23
        # each here, against the 10^-19 asked)
        res = integrate_01_fixed(_fe_inverse_sqrt(), QUICK)
        assert _close(res.value, mp.log(3), "1e-19")

    def test_log_singularity(self):
        # (1-u)/ln(1/u): every derivative blows up at u = 0
        res = integrate_01_fixed(_fe_power(0), QUICK)
        assert _close(res.value, mp.ln2, "1e-19")

    def test_divergent_integrand_raises(self, monkeypatch):
        # (1-u)/ln(1/u) / (1-u) ~ 1/(1-u) at u = 1: no integral
        monkeypatch.setattr(quadrature, "_MAX_LEVELS", 4)
        small = PrecisionConfig(target_digits=15, working_digits=30)

        def term(columns, prec):
            return (columns[1] << prec) // max((1 << prec) - columns[0], 1)

        with pytest.raises(NonConvergenceError) as exc:
            integrate_01_fixed(TermKernel(term), small)
        assert exc.value.best_value is not None

    def test_error_estimate_is_honest(self):
        res = integrate_01_fixed(_fa_kernel(), DEFAULT_PRECISION)
        assert _close(res.value, 7 * mp.zeta(3) / mp.pi**2, res.error_estimate + mp.mpf("1e-30"))


def _levels_until_two_agree(kernel, cfg):
    """The stopping rule the extrapolated estimate replaced, as an
    oracle: the integrator's level sums from the same node table and
    kernel, taken member by member with ``kernel.member`` over the whole
    level, with no power sum shared, returned at the first level k >= 1
    with |T_k - T_(k-1)| <= 10^-target (1 + |T_k|).  Returns the level
    count and the level sums."""
    eval_dps = cfg.eval_digits
    depth = _node_depth(cfg)
    prec = _fixed_bits(eval_dps)
    wp = prec + _COLUMN_GUARD_BITS
    centre, _ = _pair_columns(0, pi_fixed(wp), wp, prec)
    with mp.workdps(eval_dps):
        tol = mp.mpf(10) ** (-cfg.target_digits)
        sums = []
        for level in range(quadrature._MAX_LEVELS):
            pairs = _ts_level_columns(eval_dps, depth, level)
            new = sum(kernel.member(lo, prec) + kernel.member(hi, prec) for lo, hi in pairs)
            new = mp.ldexp(new, -prec)
            h = mp.mpf(1) / 2**level
            if level == 0:
                sums.append(h * (mp.ldexp(kernel.member(centre, prec), -prec) + new))
                continue
            sums.append(sums[-1] / 2 + h * new)
            if abs(sums[-1] - sums[-2]) <= tol * (1 + abs(sums[-1])):
                return level + 1, sums
    raise AssertionError("the oracle did not converge")


def _moment_one(cfg):
    return _fa_kernel(), cfg


def _exp_route_m3(cfg):
    cfg, kernel, _, _, _ = zeta_mod._degree_setup(3, cfg)
    return kernel, cfg


class TestStoppingRule:
    @pytest.mark.parametrize(
        "integrand, target, saved",
        [
            (_exp_route_m3, 100, 1),
            (_exp_route_m3, 300, 1),
            (_moment_one, 300, 1),
            # the old test returned T_6 on |T_6 - T_5| = 9.3e-101, just
            # inside 10^-100 (1 + I_1): T_5 met the target by a hair, so
            # the headroom cannot take it and both stop at 7 levels
            (_moment_one, 100, 0),
        ],
        ids=["exp-m3-100", "exp-m3-300", "I1-300", "I1-100"],
    )
    def test_one_level_before_two_levels_agree(self, integrand, target, saved):
        # each level doubles the correct digits, so the level the old
        # test returned usually only confirmed the one before it
        kernel, cfg = integrand(PrecisionConfig(target, target + 20))
        got = integrate_01_fixed(kernel, cfg)
        old_levels, sums = _levels_until_two_agree(kernel, cfg)
        assert got.levels == old_levels - saved
        assert got.value == sums[got.levels - 1]

    @pytest.mark.parametrize("target", [15, 30, 100, 300])
    @pytest.mark.parametrize(
        "kernel, exact",
        [
            (_fa_kernel(), lambda: 7 * mp.zeta(3) / mp.pi**2),
            (TermKernel(_fa_x), lambda: _moment_sum(2)),
            (_fe_power(0), lambda: mp.ln2),
        ],
        ids=["inv-sqrt", "cube-inv-sqrt", "neg-log"],
    )
    def test_estimate_bounds_error_against_closed_forms(self, kernel, exact, target):
        # u/asech(u) and u^3/asech(u), inverse square roots at u = 1
        # (I_1 and I_2), and (1-u)/ln(1/u), logarithmic at u = 0 (ln 2).
        # The estimate covers the discretization error and, through the
        # outermost term times the step, the mass beyond the outermost
        # node; 10^-eval_digits covers the rounding
        cfg = PrecisionConfig(target, target + 20)
        res = integrate_01_fixed(kernel, cfg)
        with mp.workdps(cfg.eval_digits + 10):
            err = abs(res.value - exact())
            assert err <= res.error_estimate + mp.mpf(10) ** -cfg.eval_digits

    def test_stop_does_not_depend_on_scale(self):
        # the estimate works on the level sums divided by 1 + |T_k|, so a
        # constant factor on the integrand moves neither the level nor
        # the node count it stops at
        cfg = PrecisionConfig(30, 50)
        stops = set()
        for scale in (1, 10**10, 10**30):
            res = integrate_01_fixed(_fa_kernel(scale), cfg)
            stops.add((res.levels, res.nodes_used))
        assert len(stops) == 1

    def test_headroom_is_needed(self, monkeypatch):
        # without the headroom the exp route at 15 digits misses the
        # 10^-(target + 10) bound of test_exp_kernel_precision_grid
        monkeypatch.setattr(quadrature, "_STOP_HEADROOM", 0)
        got = zeta_mod.zeta_via_exp_kernel(3, PrecisionConfig(15, 35))
        with mp.workdps(45):
            assert abs(got - mp.zeta(3)) > mp.mpf(10) ** -25


def _estimate_every_level(sums, eval_dps):
    """The stopping rule's estimate as first written, the oracle of the
    screen: two mpmath log10 and a power at eval precision whenever
    there are three level sums."""
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


def _exact_rule(kernel, cfg):
    """integrate_01_fixed's level loop with no screen: the estimate and
    the error formed at every level.  Returns ("stop", levels, value,
    error, nodes) at the first level whose estimate clears the target,
    or ("raise", best_value, error, message) after _MAX_LEVELS levels."""
    eval_dps = cfg.eval_digits
    depth = _node_depth(cfg)
    prec = _fixed_bits(eval_dps)
    with mp.workdps(eval_dps):
        tol = mp.mpf(10) ** (-(cfg.target_digits + quadrature._STOP_HEADROOM))
        sums = []
        err = mp.inf
        used = 0
        for level in range(quadrature._MAX_LEVELS):
            table = _ts_level_columns(eval_dps, depth, level)
            used += 2 * len(table)
            new = mp.ldexp(kernel.level(table, prec), -prec)
            h = mp.mpf(1) / 2**level
            if level == 0:
                centre = kernel.member(quadrature._centre_columns(prec), prec)
                sums.append(h * (mp.ldexp(centre, -prec) + new))
                used += 1
                continue
            current = sums[-1] / 2 + h * new
            sums = sums[-2:] + [current]
            relative = _estimate_every_level(sums, eval_dps)
            outermost = sum(kernel.member(columns, prec) for columns in table[-1])
            err = relative * (1 + abs(current)) + h * abs(mp.ldexp(outermost, -prec))
            if relative <= tol:
                return "stop", level + 1, current, err, used
        message = (
            f"tanh-sinh on (0,1): no convergence to {cfg.target_digits} digits "
            f"within {quadrature._MAX_LEVELS} levels (error estimate {mp.nstr(err, 3)})"
        )
        return "raise", sums[-1], err, message


def _integral_in_kernel(n, cfg, monkeypatch):
    """The TermKernel integral_In(n, cfg) hands the integrator."""
    kernels = []
    integrate = quadrature.integrate_01_fixed

    def spy(kernel, cfg):
        kernels.append(kernel)
        return integrate(kernel, cfg)

    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "integrate_01_fixed", spy)
        integral_In(n, cfg)
    return kernels[0]


# the 300-digit row runs only with --run-slow
_SCREEN_DIGITS = [15, 30, 100, pytest.param(300, marks=pytest.mark.slow)]


def _mpf_of(data, max_bits=2000, min_log2=-1329, max_log2=16):
    """A positive mpf with a mantissa of 1..max_bits bits and
    2^min_log2 <= x < 2^max_log2 (10^-400 is about 2^-1329)."""
    bits = data.draw(st.integers(1, max_bits))
    man = data.draw(st.integers(1 << bits - 1, (1 << bits) - 1))
    top = data.draw(st.integers(min_log2 + 1, max_log2))
    return mp.make_mpf(from_man_exp(man, top - bits))  # not rounded


class TestStopScreen:
    """integrate_01_fixed screens each level's stop in float
    (quadrature._certainly_above) and takes the exact rule only where the
    screen cannot rule a stop out; the exact rule at every level is the
    oracle."""

    def test_two_logs_per_integral(self, monkeypatch):
        # the exact rule's two log10 run only at the level that stops;
        # the estimate at every level made two per level from level 2 on
        logs = integrals = 0
        log10 = quadrature.mp.log10
        integrate = zeta_mod.integrate_01_fixed

        def counted_log10(x):
            nonlocal logs
            logs += 1
            return log10(x)

        def counted_integrate(kernel, cfg):
            nonlocal integrals
            integrals += 1
            return integrate(kernel, cfg)

        monkeypatch.setattr(quadrature.mp, "log10", counted_log10)
        monkeypatch.setattr(zeta_mod, "integrate_01_fixed", counted_integrate)
        for m in range(3, 22, 2):
            assert zeta_mod.zeta_report(m, PrecisionConfig(30, 50)).passed
        assert integrals == 20
        assert 0 < logs <= 2 * integrals

    @pytest.mark.parametrize("route", ["exp", "asech"])
    @pytest.mark.parametrize("m", [3, 13, 41, 61, 101])
    @pytest.mark.parametrize("digits", _SCREEN_DIGITS)
    def test_routes_stop_where_the_exact_rule_does(self, digits, m, route):
        cfg, exp_kernel, _, asech_kernel, _ = zeta_mod._degree_setup(
            m, PrecisionConfig(digits, digits + 20)
        )
        kernel = exp_kernel if route == "exp" else asech_kernel
        got = integrate_01_fixed(kernel, cfg)
        want = _exact_rule(kernel, cfg)
        assert ("stop", got.levels, got.value, got.error_estimate, got.nodes_used) == want

    @pytest.mark.parametrize("n", [1, 50, 400])
    @pytest.mark.parametrize("digits", _SCREEN_DIGITS)
    def test_moments_stop_where_the_exact_rule_does(self, digits, n, monkeypatch):
        cfg = PrecisionConfig(digits, digits + 20)
        got = integral_In(n, cfg)
        want = _exact_rule(_integral_in_kernel(n, cfg, monkeypatch), cfg)
        assert ("stop", got.levels, got.value, got.error_estimate, got.nodes_used) == want

    @pytest.mark.parametrize(
        "term",
        [
            # test_growing_integrand_raises: Fe/q^2 in q, h = (e^x - 1)/x
            lambda columns, prec: (columns[1] << 2 * prec) // max(columns[0] ** 2, 1),
            # test_divergent_integrand_raises: ~ 1/(1-u) at u = 1
            lambda columns, prec: (columns[1] << prec) // max((1 << prec) - columns[0], 1),
        ],
        ids=["growing", "divergent"],
    )
    def test_nonconvergence_reports_the_last_level(self, term, monkeypatch):
        # the last level takes the exact rule whatever the screen says,
        # so the error carries that level's estimate and outermost term
        monkeypatch.setattr(quadrature, "_MAX_LEVELS", 4)
        cfg = PrecisionConfig(target_digits=15, working_digits=30)
        kernel = TermKernel(term)
        with pytest.raises(NonConvergenceError) as exc:
            integrate_01_fixed(kernel, cfg)
        want = _exact_rule(kernel, cfg)
        got = ("raise", exc.value.best_value, exc.value.error_estimate, str(exc.value))
        assert got == want

    @given(data=st.data())
    def test_float_log10_within_its_bound(self, data):
        # 2^-51 (1 + |log10 x|), a quarter of the screen's _LOG10_SLACK,
        # against mpmath 60 digits up, for mantissas of 1..2000 bits and
        # x from 10^-400 to 2^16
        x = _mpf_of(data)
        got = quadrature._log10_float(x)
        with mp.workdps(80):
            assert abs(got - mp.log10(x)) <= quadrature._LOG10_SLACK / 4 * (1 + abs(got))

    @staticmethod
    def _check_screen(d1, d2, target, eval_dps):
        """d1 and d2 rounded to eval_dps, as the integrator holds them,
        and screened where the integrator screens (0 < d2 < 1): the
        screen says "certainly above" only where the exact rule does not
        stop.  Returns the screen's answer."""
        stop_exp = -(target + quadrature._STOP_HEADROOM)
        with mp.workdps(eval_dps):
            d1, d2 = +d1, +d2
            if d2 >= 1:
                return False
            above = quadrature._certainly_above(d1, d2, stop_exp)
            if above:
                tol = mp.mpf(10) ** stop_exp
                D1, D2 = mp.log10(d1), mp.log10(d2)
                assert mp.mpf(10) ** max(D1 * D1 / D2, 2 * D1, -eval_dps) > tol
        return above

    @staticmethod
    def _precision(data):
        target = data.draw(st.integers(1, 330))
        eval_dps = data.draw(st.sampled_from([target + 10, -(-(target + 10) // 10) * 10 + 10]))
        return target, max(eval_dps, 20)

    @given(data=st.data())
    def test_screen_never_skips_a_stop(self, data):
        target, eval_dps = self._precision(data)
        d1 = _mpf_of(data, max_log2=4)
        d2 = _mpf_of(data, max_log2=0)
        self._check_screen(d1, d2, target, eval_dps)

    @given(data=st.data())
    def test_screen_defers_on_d2_just_below_one(self, data):
        # log10(d2) rounds to 0 or near it in float: the screen must
        # leave the level to the exact rule, never divide by it
        target, eval_dps = self._precision(data)
        man = data.draw(st.integers(1, 2**40 - 1))
        shift = 40 + man.bit_length() + data.draw(st.integers(0, 25))
        gap = mp.make_mpf(from_man_exp(man, -shift))  # in [2^-66, 2^-40)
        with mp.workdps(eval_dps):
            d2 = 1 - gap  # below 1 at 70 bits and more
        d1 = _mpf_of(data, max_log2=0)
        if self._check_screen(d1, d2, target, eval_dps):
            assert 2 * quadrature._log10_float(d1) > -(target + quadrature._STOP_HEADROOM)

    @given(data=st.data())
    def test_screen_near_the_stop(self, data):
        # D1^2/D2 placed within about 2^-35 |L| of L = -(target + 10),
        # inside the band the screen leaves to the exact rule, and at
        # eval_digits == target + 10 too, where the floor equals the
        # tolerance
        target, eval_dps = self._precision(data)
        stop_exp = -(target + quadrature._STOP_HEADROOM)
        shift = data.draw(st.integers(-(2**20), 2**20))
        with mp.workdps(eval_dps + 20):
            D2 = -mp.mpf(data.draw(st.integers(1, 2**20))) / 2**10
            D1 = -mp.sqrt(stop_exp * D2 * (1 + mp.ldexp(shift, -55)))
            d1, d2 = mp.mpf(10) ** D1, mp.mpf(10) ** D2
        with mp.workdps(eval_dps):
            d1, d2 = +d1, +d2
        self._check_screen(d1, d2, target, eval_dps)

    @given(data=st.data())
    def test_screen_skips_clear_misses(self, data):
        # not vacuous: an exponent 2^-30 (1 + |L|) above L, with |D2| at
        # least 10^-3, is always ruled out in float
        target, eval_dps = self._precision(data)
        stop_exp = -(target + quadrature._STOP_HEADROOM)
        with mp.workdps(eval_dps + 20):
            D2 = -mp.mpf(data.draw(st.integers(1, 400_000))) / 1000
            excess = 2.0**-30 * (1 - stop_exp) * (1 + data.draw(st.integers(0, 2**20)))
            D1 = -mp.sqrt((stop_exp + excess) * D2)
            d1, d2 = mp.mpf(10) ** D1, mp.mpf(10) ** D2
        with mp.workdps(eval_dps):
            d1, d2 = +d1, +d2
        assert self._check_screen(d1, d2, target, eval_dps)


def _half_line(h):
    """The integral of h over (0, infinity) by mpmath's own quadrature."""
    return mp.quad(h, [0, 1, mp.inf])


class TestHalfLine:
    """Integrals over (0, infinity) through q = e^-x on the (0, 1) core,
    the way the exp route takes its kernel: the member's u column is q,
    and Fe = w (1-q)/ln(1/q) carries 1/x, so a kernel Fe f(q) integrates
    h(x) = (1 - e^-x) f(e^-x) e^-x / x."""

    def test_exponential(self):
        # h = (e^-3x - e^-4x)/x, Frullani: ln(4/3)
        res = integrate_01_fixed(_fe_power(2), QUICK)
        assert _close(res.value, mp.log(mp.mpf(4) / 3), "1e-20")

    def test_slow_exponential_rate(self):
        # h = tanh(x/2) e^(-x/2) / x: q^(-1/2), singular at q = 0, after
        # the substitution
        res = integrate_01_fixed(_fe_inverse_sqrt(factor_g=True), QUICK)
        want = _half_line(lambda x: mp.tanh(x / 2) * mp.exp(-x / 2) / x)
        assert _close(res.value, want, "1e-19")

    def test_sech(self):
        # h = (1 - e^-x) sech(x) / x, with sech x = 2q/(1+q^2)
        def term(columns, prec):
            u, fe, _ = columns
            return fe * ((2 << 2 * prec) // ((1 << prec) + (u * u >> prec))) >> prec

        res = integrate_01_fixed(TermKernel(term), QUICK)
        want = _half_line(lambda x: -mp.expm1(-x) * mp.sech(x) / x)
        assert _close(res.value, want, "1e-19")

    def test_runs_at_eval_digits(self):
        # the exp route's half-line kernel, summed in integers, builds its
        # node tables at eval_digits and the caller's depth
        cfg = PrecisionConfig(target_digits=20, working_digits=33)
        _, kernel, _, _, _ = zeta_mod._degree_setup(3, cfg)
        _ts_level_columns.cache_clear()
        integrate_01_fixed(kernel, cfg)
        built = _ts_level_columns.cache_info().currsize
        assert built >= 2
        _ts_level_columns(cfg.eval_digits, _node_depth(cfg), 0)
        _ts_level_columns(cfg.eval_digits, _node_depth(cfg), 1)
        assert _ts_level_columns.cache_info().currsize == built

    def test_growing_integrand_raises(self, monkeypatch):
        # h = (e^x - 1)/x grows: Fe/q^2 in q
        monkeypatch.setattr(quadrature, "_MAX_LEVELS", 4)
        small = PrecisionConfig(target_digits=15, working_digits=30)

        def term(columns, prec):
            return (columns[1] << 2 * prec) // max(columns[0] ** 2, 1)

        with pytest.raises(NonConvergenceError):
            integrate_01_fixed(TermKernel(term), small)


_RATIO_PREC = 200  # bits: the integer forms below at about 60 digits


def _fixed(x, prec=_RATIO_PREC):
    return int(mp.floor(mp.ldexp(x, prec)))


def _real(n, prec=_RATIO_PREC):
    return mp.ldexp(n, -prec)


class TestAsech:
    """asech(u) as the node table computes it, in integers from q: at the
    plus member u = 1/(1+q), asech(u) = acosh(1+q) = sqrt(2q) times
    acosh(1+q)/sqrt(2q); at the minus member u = q/(1+q),
    asech(u) = 2s + ln(1 + q + sqrt(1 + 2q)) with 2s = ln(1/q).  Series
    (_series_ratios) on the outer nodes, logs (_log_ratios) on the inner."""

    @staticmethod
    def _ratios(q, forms=(_series_ratios, _log_ratios)):
        one = 1 << _RATIO_PREC
        fq = _fixed(q)
        root = math.isqrt((one + 2 * fq) << _RATIO_PREC)
        return [form(fq, root, _RATIO_PREC) for form in forms]

    def test_branch_point_value(self):
        # acosh(1+q)/sqrt(2q) -> 1 as u -> 1
        assert _acosh_ratio(0, _RATIO_PREC) == 1 << _RATIO_PREC

    def test_matches_library_on_grid(self):
        # both forms, every ratio within 2^8 units of 2^-prec over q: a
        # series errs by about a unit per term, and the logs' form divides
        # by q and sqrt(2q)
        with mp.workdps(80):
            for i in range(1, 101):
                q = _real(_fixed(mp.mpf(i) / 100))
                unit = mp.ldexp(256, -_RATIO_PREC) / q
                want = (mp.log1p(q) / q, mp.acosh(1 + q) / mp.sqrt(2 * q),
                        mp.log(1 + q + mp.sqrt(1 + 2 * q)))
                for ratios in self._ratios(q):
                    for got, ref in zip(ratios, want):
                        assert abs(_real(got) - ref) <= unit, (i, got)

    def test_near_one_expansion(self):
        # acosh(1+q)/sqrt(2q) = 1 - q/12 + 3 q^2/160 - O(q^3): u = 1/(1+q)
        with mp.workdps(80):
            q = mp.mpf("1e-10")
            got = _real(_acosh_ratio(_fixed(q), _RATIO_PREC))
            assert abs(got - (1 - q / 12 + 3 * q**2 / 160)) < mp.mpf("1e-28")

    def test_near_zero_expansion(self):
        # asech(u) = ln(2/u) - u^2/4 - 3 u^4/32 - O(u^6) at u = q/(1+q)
        with mp.workdps(80):
            q = mp.mpf("1e-6")
            u = q / (1 + q)
            (_, _, rest), = self._ratios(q, (_series_ratios,))
            got = mp.log(1 / q) + _real(rest)
            assert abs(got - (mp.log(2 / u) - u**2 / 4 - 3 * u**4 / 32)) < mp.mpf("1e-30")

    def test_domain(self):
        # the table's q run over (0, 1]; at q = 1, the centre u = 1/2,
        # both forms give asech(1/2) = ln(2 + sqrt 3) on both members
        # (within 2^8 units, as on the grid)
        with mp.workdps(80):
            want = mp.log(2 + mp.sqrt(3))
            unit = mp.ldexp(256, -_RATIO_PREC)
            for _, acosh_ratio, rest in self._ratios(mp.mpf(1)):
                assert abs(_real(acosh_ratio) * mp.sqrt(2) - want) <= 2 * unit
                assert abs(_real(rest) - want) <= unit

    def test_exact_complement_beyond_precision(self):
        # the outermost node of a 30-digit target at 40 digits, q = 1e-67,
        # lies far below 2^-P: u_plus truncates to exactly 1, yet its
        # Fa = w u/asech(u), with asech(u) = acosh(1+q) ~ sqrt(2q), is
        # built from q and stays within one unit of the textbook value
        prec = _fixed_bits(40)
        wp = prec + _COLUMN_GUARD_BITS
        with mp.workdps(200):
            two_s = 67 * mp.ln10
            t = mp.asinh(two_s / mp.pi)
            q = mp.exp(-two_s)
            minus, plus = _pair_columns(
                _fixed(two_s, wp), _fixed(mp.pi * mp.cosh(t), wp), wp, prec
            )
            assert minus[0] == 0 and plus[0] == 1 << prec
            w = mp.pi * mp.cosh(t) * q / (1 + q) ** 2
            want = w / (1 + q) / mp.acosh(1 + q)
            assert plus[2] > 0
            assert abs(plus[2] - mp.ldexp(want, prec)) <= 1


class TestNegLog:
    """ln(1/u) as the node table computes it, in integers: log1p(q)/q
    (_log1p_ratio) on the outer nodes, _log_fixed on the inner."""

    def test_matches_library_on_grid(self):
        # _log_fixed within six units on [1, 2 + sqrt 3], the x the node
        # table passes it; log1p(x)/x within 2^8, about a unit per series
        # term
        with mp.workdps(80):
            unit = mp.ldexp(1, -_RATIO_PREC)
            for i in range(101):
                x = _real(_fixed(1 + (1 + mp.sqrt(3)) * i / 100))
                got = _real(_log_fixed(_fixed(x), _RATIO_PREC))
                assert abs(got - mp.log(x)) <= 6 * unit, x
            for i in range(1, 100):
                x = _real(_fixed(mp.mpf(i) / 100))
                got = _real(_log1p_ratio(_fixed(x), _RATIO_PREC))
                assert abs(got - mp.log1p(x) / x) <= 256 * unit, x

    def test_exact_complement_beyond_precision(self):
        # log1p(x)/x = 1 - x/2 + x^2/3 - ... never forms 1 + x, so x far
        # below the precision of 1 + x still shows: x = 1e-40 at 60 digits
        with mp.workdps(80):
            x = mp.mpf("1e-40")
            got = _real(_log1p_ratio(_fixed(x), _RATIO_PREC))
            assert abs(got - (1 - x / 2)) <= mp.ldexp(2, -_RATIO_PREC)
            assert got != 1

    def test_domain(self):
        # _log_fixed takes any x >= 1: ln 1 = 0 exactly, and the edges of
        # its 16-entry table (leading bits j = 16 and 31) below x = 4 stay
        # within six units
        assert _log_fixed(1 << _RATIO_PREC, _RATIO_PREC) == 0
        with mp.workdps(80):
            for e in (0, 1):
                for j in (16, 31):
                    x = mp.mpf(j) / 16 * 2**e
                    got = _real(_log_fixed(_fixed(x), _RATIO_PREC))
                    assert abs(got - mp.log(x)) <= mp.ldexp(6, -_RATIO_PREC), (e, j)


# Digits x moment index; the 300-digit corners run only with --run-slow.
_MOMENT_GRID = [
    pytest.param(d, n, marks=pytest.mark.slow) if d == 300 else (d, n)
    for d in (15, 30, 100, 300)
    for n in (1, 5, 50, 200, 400)
]


class TestMomentIntegrals:
    def test_value_against_frozen_reference(self):
        res = integral_In(1, DEFAULT_PRECISION)
        assert _close(res.value, mp.mpf(I1_REFERENCE), "1e-29")

    def test_repeat_call_is_bit_identical(self):
        a = integral_In(2, DEFAULT_PRECISION)
        b = integral_In(2, DEFAULT_PRECISION)
        assert a == b

    @pytest.mark.parametrize("digits", [30, 100])
    @pytest.mark.parametrize("n", [1, 5])
    def test_error_estimate_covers_error(self, n, digits):
        # the reported estimate adds the outermost summed term times the
        # step, which covers the mass beyond the outermost node
        res = integral_In(n, PrecisionConfig(digits, digits + 20))
        cross, cross_err = integral_In_crosscheck(n, dps=digits + 40)
        with mp.workdps(digits + 40):
            assert cross_err < mp.mpf(10) ** -(digits + 20)
            assert res.error_estimate >= abs(res.value - cross)

    def test_small_targets_converge(self):
        # at depth 2 target + 7 refinement stalled on the moving outermost
        # term for n = 1 at targets 2..5 and for n = 20 at 1..5
        for n in (1, 5, 20):
            cross, _ = integral_In_crosscheck(n, dps=40)
            for target in range(1, 16):
                value = integral_In(n, PrecisionConfig(target, target + 10)).value
                assert abs(value - cross) <= mp.mpf(10) ** -target * cross

    def test_two_schemes_agree(self):
        for n in (1, 2, 3):
            ts = integral_In(n, DEFAULT_PRECISION).value
            gl, gl_err = integral_In_crosscheck(n, dps=40)
            assert gl_err < mp.mpf("1e-30")
            assert _close(ts, gl, "1e-25")

    def test_domain(self):
        with pytest.raises(ValueError):
            integral_In(0)
        with pytest.raises(ValueError):
            integral_In_crosscheck(0)

    def test_deterministic_across_calls(self):
        cfg = PrecisionConfig(target_digits=30, working_digits=50)
        first = integral_In(4, cfg)
        again = integral_In(4, PrecisionConfig(target_digits=30, working_digits=50))
        # equal configs give the same bits, value and diagnostics alike
        assert again == first

    def test_asech_table_matches_direct_integrand(self):
        # integral_In sums the node table's integer columns; the direct
        # integrand u^(2n-1)/asech(u), by Gauss-Legendre after u = 1 - t^2
        # (integral_In_crosscheck), agrees with it to the target.  Cold
        # and warm tables give the same bits, with two precisions in one
        # session, so a table shared across precisions fails
        configs = [PrecisionConfig(d, d + 20) for d in (30, 100)]
        first = {}
        for _ in range(2):
            _ts_level_columns.cache_clear()
            for cfg in configs:
                for n in range(1, 7):
                    got = integral_In(n, cfg)
                    assert first.setdefault((cfg, n), got) == got
        for (cfg, n), got in first.items():
            cross, _ = integral_In_crosscheck(n, dps=cfg.target_digits + 10)
            with mp.workdps(cfg.target_digits + 10):
                assert abs(got.value - cross) <= mp.mpf(10) ** -cfg.target_digits * cross

    @pytest.mark.parametrize("digits, n", _MOMENT_GRID)
    def test_integer_sums_match_mpf_reference(self, digits, n):
        # the reference is the theta sum, I_n = sum_K theta_K
        # zeta(2K+1)/pi^(2K) in mpf from linear_form and mpmath.zeta (no
        # node); all 20 points measured inside 10^-digits relative, from
        # 1.15e-18 at (15, 1) to 7.34e-303 at (300, 400)
        cfg = PrecisionConfig(digits, digits + 20)
        residual = linear_form_residual(linear_form(n), cfg)
        with mp.workdps(cfg.eval_digits):
            assert residual / integral_In(n, cfg).value <= mp.mpf(10) ** -digits

    @pytest.mark.parametrize("digits, n", _MOMENT_GRID)
    def test_every_level_sums_all_its_nodes(self, digits, n):
        # the node count the integral command prints: the centre and both
        # members of every pair on each level run, none skipped
        cfg = PrecisionConfig(digits, digits + 20)
        res = integral_In(n, cfg)
        pairs = sum(
            len(_ts_level_columns(cfg.eval_digits, _node_depth(cfg), level))
            for level in range(res.levels)
        )
        assert res.nodes_used == 1 + 2 * pairs

    @pytest.mark.parametrize(
        "digits, n",
        [
            pytest.param(d, n, marks=pytest.mark.slow) if d == 300 else (d, n)
            for d in (15, 100, 300)
            for n in (1, 2, 50, 400)
        ],
    )
    def test_term_and_power_sum_kernels_agree(self, digits, n):
        # the moment's term Fa X^(n-1) and the power-sum kernel reading
        # (Fa, X) with the coefficients of x^(n-1) are one integrand
        # under one kernel contract: same levels and nodes, values within
        # the eval precision
        cfg = PrecisionConfig(digits, digits + 20)
        coeffs = (0,) * (n - 1) + (1,)
        by_term = integral_In(n, cfg)
        by_sums = integrate_01_fixed(PowerSumKernel(zeta_mod._asech_reading, coeffs), cfg)
        assert (by_sums.levels, by_sums.nodes_used) == (by_term.levels, by_term.nodes_used)
        with mp.workdps(cfg.eval_digits):
            tolerance = mp.mpf(10) ** -cfg.eval_digits * by_term.value
            assert abs(by_sums.value - by_term.value) <= tolerance

    @pytest.mark.parametrize("digits", [15, 30, 100])
    @pytest.mark.parametrize("n", [140, 180, 400])
    def test_large_n(self, n, digits):
        # the mass lies near 1 - u ~ 1/n, where u^(2n-1) stops being
        # negligible.  Second scheme to the target; the Laplace leading
        # term sqrt(pi/(4n-2)) lies just above I_n.
        cfg = PrecisionConfig(digits, digits + 20)
        got = integral_In(n, cfg).value
        cross, cross_err = integral_In_crosscheck(n, dps=digits + 10)
        with mp.workdps(digits + 20):
            assert cross_err < mp.mpf(10) ** -(digits + 5)
            assert abs(got - cross) <= mp.mpf(10) ** -digits * cross
            ratio = mp.sqrt(mp.pi / (4 * n - 2)) / got
            assert 1 < ratio < mp.mpf("1.01")

    def test_cache_reset_reproduces_bit_identical_value(self):
        first = integral_In(1, QUICK)
        _ts_level_columns.cache_clear()
        second = integral_In(1, QUICK)
        assert second is not first
        assert second.value == first.value
        assert second.nodes_used == first.nodes_used


class TestNodeTables:
    # depth 87 reaches past 45 digits (P = 170 bits, about 51 digits), so
    # the deepest u_minus truncate to 0 and their u_plus to exactly 1
    PREC = _fixed_bits(45)

    def test_unit_interval_nodes_strictly_interior(self):
        # every pair lies on either side of 1/2, and every plus member
        # carries its node through Fa = w u/asech(u) > 0
        one = 1 << self.PREC
        for level in (0, 1, 3):
            for minus, plus in _ts_level_columns(45, 87, level):
                assert 0 <= minus[0] < one // 2 < plus[0] <= one
                assert plus[2] > 0

    def test_unit_interval_nodes_are_mirror_pairs(self):
        # each member's u column is the exact complement of the other's
        for minus, plus in _ts_level_columns(45, 87, 1):
            assert minus[0] + plus[0] == 1 << self.PREC

    def test_depth_only_extends_the_range(self):
        # a deeper table holds the shallower one as its prefix, bit for
        # bit, and no boundary gap falls below 10^-depth
        for eval_dps in (45, 130):
            floor = int(mp.ldexp(mp.mpf(10) ** -47, _fixed_bits(eval_dps)))
            for level in range(4):
                shallow = _ts_level_columns(eval_dps, 47, level)
                deep = _ts_level_columns(eval_dps, 87, level)
                assert deep[: len(shallow)] == shallow
                assert len(deep) > len(shallow) or level == 0
                assert min(minus[0] for minus, _ in shallow) >= floor

    def test_half_line_nodes_positive_and_split(self):
        # read as half-line nodes x = ln(1/q), q the member's u column,
        # the minus side lies beyond ln 2 (q < 1/2) and the plus side
        # below it, and x > 0 carries weight: Fe = w (1-q)/x > 0
        half = 1 << self.PREC - 1
        for minus, plus in _ts_level_columns(45, 87, 0):
            assert minus[0] < half < plus[0]
            assert plus[1] > 0

    def test_refinement_levels_are_disjoint(self):
        level0 = set(_ts_level_columns(45, 87, 0))
        level1 = set(_ts_level_columns(45, 87, 1))
        assert level0 and level1
        assert not level0 & level1

    def test_deep_nodes_pass_exact_complements(self):
        # at 70 digits and depth 127 the deepest u_plus round to exactly
        # 1; their weighted columns still carry distinct nonzero
        # 1 - u, through Fa ~ w/sqrt(2 (1-u)), on the 6 levels I_1 takes
        cfg = PrecisionConfig(60, 70)
        prec = _fixed_bits(cfg.eval_digits)
        one = 1 << prec
        deep = [
            plus
            for level in range(integral_In(1, cfg).levels)
            for minus, plus in _ts_level_columns(cfg.eval_digits, _node_depth(cfg), level)
            if minus[0] == 0
        ]
        assert len(deep) >= 10
        assert all(plus[0] == one and plus[2] > 0 for plus in deep)
        # so X = u^2, which the asech reading forms, is exactly 1 there
        assert all(zeta_mod._asech_reading(plus, prec)[1] == one for plus in deep)
        assert len({plus[2] for plus in deep}) == len(deep)

    def test_node_state_is_bounded(self):
        # a session that sweeps precisions (hypothesis, zeta_sweep) must
        # not keep every node table it ever built
        maxsize = _ts_level_columns.cache_info().maxsize
        assert maxsize == _NODE_TABLES_KEPT
        for target in range(1, maxsize + 2):
            zeta_mod.zeta_via_exp_kernel(3, PrecisionConfig(target, target + 10))
        assert _ts_level_columns.cache_info().currsize <= maxsize


def _textbook_nodes(dps: int, depth: int, level: int):
    """The nodes from textbook formulas, each quantity on its own, with
    s = (pi/2) sinh t: u_minus = e^-s / (2 cosh s), u_plus = e^s / (2 cosh s),
    w = pi cosh(t) / (4 cosh(s)^2), the half-line abscissae
    ln(1/u_minus) = 2s + log1p(e^-2s), ln(1/u_plus) = log1p(e^-2s), and
    asech(u) = acosh(1/u) with 1/u_minus = 1 + e^2s and
    1/u_plus = 1 + e^-2s, taken at depth more digits so that 1 + e^-2s
    does not round to 1.  Returns, per pair, the minus and the plus
    member as (u, 1 - u, w, ln(1/u), asech(u))."""
    with mp.workdps(dps):
        t_max = mp.asinh(depth * mp.log(10) / mp.pi)
        h = mp.mpf(1) / 2**level
        step = 1 if level == 0 else 2
        out = []
        k = 1
        t = k * h
        while t <= t_max:
            s = mp.pi * mp.sinh(t) / 2
            tail = mp.log1p(mp.exp(-2 * s))
            with mp.workdps(dps + depth):
                s_wide = mp.pi * mp.sinh(t) / 2
                asech_minus = mp.acosh(1 + mp.exp(2 * s_wide))
                asech_plus = mp.acosh(1 + mp.exp(-2 * s_wide))
            u_minus = mp.exp(-s) / (2 * mp.cosh(s))
            u_plus = mp.exp(s) / (2 * mp.cosh(s))
            w = mp.pi * mp.cosh(t) / (4 * mp.cosh(s) ** 2)
            out.append((
                (u_minus, u_plus, w, 2 * s + tail, +asech_minus),
                (u_plus, u_minus, w, tail, +asech_plus),
            ))
            k += step
            t = k * h
        return out


def _textbook_columns(member, prec: int) -> tuple[int, ...]:
    """A member's three columns from its exact values, each truncated to
    prec fractional bits: u, w (1-u)/ln(1/u), w u/asech(u)."""
    u, d, w, log_recip, asech = member
    return tuple(int(mp.floor(mp.ldexp(x, prec))) for x in (u, w * d / log_recip, w * u / asech))


def _reading_bound(route, u, fe, fa):
    """(b, x, e_b, e_x) of a route's reading at a member with columns
    u, Fe and Fa: base, point and their errors in units of 2^-P
    (zeta._degree_setup), from the columns' bounds (U, Fe, Fa one unit)
    and those of what the reading forms from U (G = 1/(1+U) two units,
    X = U^2 three), carried through the reading's truncated products."""
    if route == "asech":
        return fa, u * u, 1, 3
    g = 1 / (1 + u)
    e_b = fe * (6 * g * g + g + 1) + g**3 + 1
    e_x = 4 * u * (4 * g + 1) + 4 * g * g + 1
    return fe * g**3, 4 * u * g * g, e_b, e_x


# (eval digits, target digits): production depth 2 target + 7 puts the
# outermost q below 2^-P at every point; the corners from 300 digits up
# run only with --run-slow
_COLUMN_GRID = [
    (30, 20),
    (60, 40),
    (130, 110),
    (180, 150),
    (250, 230),
    pytest.param(350, 330, marks=pytest.mark.slow),
]
# u, w (1-u)/ln(1/u), w u/asech(u): the documented bound of each column,
# in units of 2^-P
_COLUMN_BOUND = (1, 1, 1)


def _assert_member_matches(columns, member, prec: int, where):
    """One member's production columns against its textbook values
    ``member`` (u, 1 - u, w, ln(1/u), asech(u)), within _COLUMN_BOUND of
    their truncations to P bits; and what the routes' readings form from
    the u column: the asech reading's X = u^2 within three units of its
    truncation, the exp reading's base Fe G^3 and point 4 U G^2 within
    _reading_bound's (e_b, e_x) of their exact values (G = 1/(1+u) within
    two units carried through)."""
    want = _textbook_columns(member, prec)
    for column, (a, b, bound) in enumerate(zip(columns, want, _COLUMN_BOUND)):
        assert abs(a - b) <= bound, (where, column, a - b)
    u, d, w, log_recip, asech = member
    x = zeta_mod._asech_reading(columns, prec)[1]
    assert abs(x - int(mp.floor(mp.ldexp(u * u, prec)))) <= 3, (where, "X")
    b, z, e_b, e_z = _reading_bound("exp", u, w * d / log_recip, w * u / asech)
    base, point = zeta_mod._exp_reading(columns, prec)
    assert abs(base - mp.ldexp(b, prec)) <= e_b, (where, "exp base")
    assert abs(point - mp.ldexp(z, prec)) <= e_z, (where, "exp point")


def _assert_columns_match_oracle(eval_dps: int, depth: int, level: int):
    """The production columns, and the readings' forms of u, against the
    textbook nodes 20 digits higher (_assert_member_matches); returns
    the columns."""
    prec = _fixed_bits(eval_dps)
    got = _ts_level_columns(eval_dps, depth, level)
    with mp.workdps(eval_dps + 20):
        want = _textbook_nodes(eval_dps + 20, depth, level)
        assert len(got) == len(want)
        for k, (pair, ref) in enumerate(zip(got, want)):
            assert pair[0][0] + pair[1][0] == 1 << prec
            for columns, member in zip(pair, ref):
                _assert_member_matches(columns, member, prec, (eval_dps, level, k))
    return got


class TestNodeColumns:
    """The node table (_ts_level_columns, integers only) against its
    oracle, the textbook formulas in mpf 20 digits higher."""

    @pytest.mark.parametrize("eval_dps, target", _COLUMN_GRID)
    def test_match_the_mpf_oracle(self, eval_dps, target):
        depth = 2 * target + 7
        prec = _fixed_bits(eval_dps)
        deep = 0
        for level in range(4):
            for minus, plus in _assert_columns_match_oracle(eval_dps, depth, level):
                if minus[0] == 0:
                    # q < 2^-P: u_plus and u^2 round to 1, the weighted
                    # columns still carry the node
                    deep += 1
                    assert plus[0] == zeta_mod._asech_reading(plus, prec)[1] == 1 << prec
                    assert plus[2] > 0
        assert deep > 0

    def test_series_and_logs_agree_around_the_switch(self, monkeypatch):
        # halving and doubling the series' term budget moves the switch
        # between series and logs across the nodes next to it; every
        # setting must match the oracle, and each level switches once
        eval_dps, depth = 130, 2 * 110 + 7
        branches = []
        for name, by_series in (("_series_ratios", True), ("_log_ratios", False)):
            real = getattr(quadrature, name)

            def record(q, root, prec, real=real, by_series=by_series):
                branches.append(by_series)
                return real(q, root, prec)

            monkeypatch.setattr(quadrature, name, record)
        terms = quadrature._SERIES_MAX_TERMS
        try:
            for budget in (terms // 2, terms, 2 * terms):
                monkeypatch.setattr(quadrature, "_SERIES_MAX_TERMS", budget)
                for level in range(4):
                    branches.clear()
                    _ts_level_columns.cache_clear()
                    _assert_columns_match_oracle(eval_dps, depth, level)
                    switch = branches.index(True)
                    assert 0 < switch
                    assert not any(branches[:switch]) and all(branches[switch:])
        finally:
            _ts_level_columns.cache_clear()

    @pytest.mark.parametrize("cfg", [QUICK, PrecisionConfig(110, 130)])
    def test_centre_node_matches_the_mpf_oracle(self, cfg):
        # the centre u = 1/2 is outside the table; the kernel sees its
        # columns once, as the member whose u column is 2^(P-1).  Its
        # oracle: w = pi/4, ln(1/u) = ln 2, asech(1/2) = ln(2 + sqrt 3)
        prec = _fixed_bits(cfg.eval_digits)
        seen = []

        def term(columns, bits):
            seen.append(columns)
            return columns[2]

        integrate_01_fixed(TermKernel(term), cfg)
        (centre,) = [c for c in seen if c[0] == 1 << prec - 1]
        with mp.workdps(cfg.eval_digits + 20):
            half = mp.mpf(1) / 2
            member = (half, half, mp.pi / 4, mp.ln2, mp.log(2 + mp.sqrt(3)))
            _assert_member_matches(centre, member, prec, "centre")

    def test_centre_is_built_once_per_precision(self):
        # three logs per build (_log_ratios at 2s = 0), so integrals at
        # one precision share it
        quadrature._centre_columns.cache_clear()
        integral_In(1, QUICK)
        integral_In(2, QUICK)
        zeta_mod.zeta_via_asech_kernel(3, QUICK)
        assert quadrature._centre_columns.cache_info().misses == 2

    def test_node_beyond_the_columns_raises_at_once(self):
        # at u ~ 10^-161 with 40-digit columns the node's exp would run at
        # a precision <= 0, where mpf_exp never returns; the alarm turns
        # such a hang into a failure
        prec = _fixed_bits(40)
        wp = prec + _COLUMN_GUARD_BITS
        with mp.workdps(200):
            two_s = 161 * mp.ln10
            cosh_pi = mp.pi * mp.cosh(mp.asinh(two_s / mp.pi))
            args = (_fixed(two_s, wp), _fixed(cosh_pi, wp), wp, prec)

        def hung(signum, frame):
            raise AssertionError("_pair_columns did not return within 5 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(5)
        try:
            with pytest.raises(ValueError, match=r"10\^-161"):
                _pair_columns(*args)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.slow
    def test_library_precision_above_the_cli(self):
        # 800 digits, past the CLI's 300: same columns as the oracle
        for level in (0, 1):
            _assert_columns_match_oracle(800, 2 * 780 + 7, level)


class TestTermKernel:
    def test_level_sums_every_pair(self):
        # terms that rise, fall to nothing for a run and rise again: the
        # level sums every member of every pair
        values = [1, 10**6, 10**3, 0, 0, 0, 0, 7]
        table = tuple(((v,), (2 * v,)) for v in values)
        kernel = TermKernel(lambda columns, prec: columns[0] << prec)
        assert kernel.level(table, 4) == 3 * sum(values) << 4
        assert kernel.member((5,), 4) == 5 << 4


class TestHalfLineNodes:
    """The (0, 1) nodes read as half-line nodes x = ln(1/q), the abscissae
    the exp route evaluates its kernel at, and the asech(u) the moments
    and the asech route divide by: the columns at depth twice the
    precision, past every production depth, against the textbook nodes."""

    @pytest.mark.parametrize("dps", [45, 212, 330])
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_match_sinh_cosh_formulas(self, dps, level):
        _assert_columns_match_oracle(dps, 2 * dps, level)

    @pytest.mark.parametrize("dps", [45, 212])
    def test_sides_are_complements_at_shared_t(self, dps):
        # e^-x on the two sides of one t adds up to 1: the q columns of
        # the pair sum to exactly 2^P
        one = 1 << _fixed_bits(dps)
        for minus, plus in _ts_level_columns(dps, dps, 2):
            assert minus[0] + plus[0] == one
