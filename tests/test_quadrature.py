from fractions import Fraction
from functools import partial

import mpmath as mp
import pytest

import zetaodd.quadrature as quadrature
import zetaodd.zeta as zeta_mod
from zetaodd.quadrature import (
    DEFAULT_PRECISION,
    NonConvergenceError,
    PrecisionConfig,
    _NODE_TABLES_KEPT,
    _TAIL_EPS_SHIFT,
    _fixed_bits,
    _fixed_columns,
    _node_depth,
    _tail_sum,
    _ts_level_columns,
    _ts_level_nodes,
    asech_stable,
    integral_In,
    integral_In_crosscheck,
    integrate_01_fixed,
    integrate_01_singular,
    neglog_stable,
)

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


def _half_line(g, cfg):
    """The integral of g over (0, infinity), as the exp route takes it:
    substitute q = e^-u and integrate g(ln(1/q)) / q over (0, 1), with
    ln(1/q) from the node table."""
    return integrate_01_singular(lambda q, d, log_recip, _: g(log_recip) / q, cfg)


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
    def test_polynomial(self):
        res = integrate_01_singular(lambda u, d, *_: u, QUICK)
        assert _close(res.value, mp.mpf(1) / 2, "1e-20")
        assert res.nodes_used > 0
        assert res.levels >= 2

    def test_inverse_sqrt_right_endpoint(self):
        res = integrate_01_singular(lambda u, d, *_: 1 / mp.sqrt(d), QUICK)
        assert _close(res.value, 2, "1e-19")

    def test_inverse_sqrt_left_endpoint(self):
        res = integrate_01_singular(lambda u, d, *_: 1 / mp.sqrt(u), QUICK)
        assert _close(res.value, 2, "1e-19")

    def test_beta_both_endpoints(self):
        res = integrate_01_singular(lambda u, d, *_: mp.sqrt(u / d), QUICK)
        assert _close(res.value, mp.pi / 2, "1e-19")

    def test_log_singularity(self):
        res = integrate_01_singular(lambda u, d, *_: mp.log(u), QUICK)
        assert _close(res.value, -1, "1e-19")

    def test_divergent_integrand_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_LEVELS", 4)
        small = PrecisionConfig(target_digits=15, working_digits=30)
        with pytest.raises(NonConvergenceError) as exc:
            integrate_01_singular(lambda u, d, *_: 1 / d, small)
        assert exc.value.best_value is not None

    def test_error_estimate_is_honest(self):
        res = integrate_01_singular(lambda u, d, *_: 1 / mp.sqrt(d), DEFAULT_PRECISION)
        assert _close(res.value, 2, res.error_estimate + mp.mpf("1e-30"))


def _levels_until_two_agree(f, cfg):
    """The stopping rule the extrapolated estimate replaced, as an
    oracle: the integrator's level sums from the same node tables and
    tail rule, returned at the first level k >= 1 with
    |T_k - T_(k-1)| <= 10^-target (1 + |T_k|).  Returns the level count
    and the level sums."""
    eval_dps = cfg.eval_digits
    depth = _node_depth(cfg)
    with mp.workdps(eval_dps):
        tol = mp.mpf(10) ** (-cfg.target_digits)
        eps = mp.mpf(10) ** (-(eval_dps + _TAIL_EPS_SHIFT))
        half = mp.mpf(1) / 2
        centre = (half, half, mp.log(2), mp.log(2 + mp.sqrt(3)))
        sums = []
        for level in range(quadrature._MAX_LEVELS):
            scale = 1 + abs(sums[-1]) if sums else mp.mpf(1)
            nodes = _ts_level_nodes(eval_dps, depth, level)
            new, _, _ = _tail_sum(
                (w * (f(*lo) + f(*hi)) for lo, hi, w in nodes), eps * scale
            )
            h = mp.mpf(1) / 2**level
            if level == 0:
                sums.append(h * (mp.pi / 4 * f(*centre) + new))
                continue
            sums.append(sums[-1] / 2 + h * new)
            if abs(sums[-1] - sums[-2]) <= tol * (1 + abs(sums[-1])):
                return level + 1, sums
    raise AssertionError("the oracle did not converge")


def _moment_one(cfg):
    return lambda u, d, _, asech: u / asech, cfg


def _exp_route_m3(cfg):
    cfg, coeffs, _, _ = zeta_mod._degree_setup(3, cfg)
    return lambda q, d, log_recip, _: zeta_mod._exp_kernel(q, d, log_recip, coeffs), cfg


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
        f, cfg = integrand(PrecisionConfig(target, target + 20))
        got = integrate_01_singular(f, cfg)
        old_levels, sums = _levels_until_two_agree(f, cfg)
        assert got.levels == old_levels - saved
        assert got.value == sums[got.levels - 1]

    @pytest.mark.parametrize("target", [15, 30, 100, 300])
    @pytest.mark.parametrize(
        "f, exact, missing",
        [
            (lambda u, d: 1 / mp.sqrt(d), Fraction(2), lambda g: 2 * mp.sqrt(g) + 2 * g),
            (lambda u, d: u**3 / mp.sqrt(d), Fraction(32, 35), lambda g: 2 * mp.sqrt(g) + 2 * g),
            (lambda u, d: -mp.log(u), Fraction(1), lambda g: g * (2 - mp.log(g))),
        ],
        ids=["inv-sqrt", "cube-inv-sqrt", "neg-log"],
    )
    def test_estimate_bounds_error_against_closed_forms(self, f, exact, missing, target):
        # the estimate covers the discretization error; no level
        # difference sees the mass beyond the outermost node, at gap g
        # from either end.  missing(g) bounds that mass: 2 sqrt(g) for a
        # 1/sqrt(1 - u) singularity, about 10^-(target + 2) at the node
        # depth, and g (1 - ln g) for a logarithm.
        cfg = PrecisionConfig(target, target + 20)
        gaps = []

        def seen(u, d, *_):
            gaps.append(d)
            return f(u, d)

        res = integrate_01_singular(seen, cfg)
        with mp.workdps(cfg.eval_digits + 10):
            err = abs(res.value - mp.mpf(exact.numerator) / exact.denominator)
            bound = res.error_estimate + missing(min(gaps)) + mp.mpf(10) ** -cfg.eval_digits
            assert err <= bound

    def test_stop_does_not_depend_on_scale(self):
        # the estimate works on the level sums divided by 1 + |T_k|, so a
        # constant factor on the integrand moves neither the level nor
        # the node count it stops at
        cfg = PrecisionConfig(30, 50)
        stops = set()
        for scale in (1, 10**10, 10**30):
            res = integrate_01_singular(lambda u, d, _, asech: scale * u / asech, cfg)
            stops.add((res.levels, res.nodes_used))
        assert len(stops) == 1

    def test_headroom_is_needed(self, monkeypatch):
        # without the headroom the exp route at 15 digits misses the
        # 10^-(target + 10) bound of test_exp_kernel_precision_grid
        monkeypatch.setattr(quadrature, "_STOP_HEADROOM", 0)
        got = zeta_mod.zeta_via_exp_kernel(3, PrecisionConfig(15, 35))
        with mp.workdps(45):
            assert abs(got - mp.zeta(3)) > mp.mpf(10) ** -25


class TestHalfLine:
    """Integrals over (0, infinity) through q = e^-u on the (0, 1) core,
    the way the exp route takes its kernel."""

    def test_exponential(self):
        res = _half_line(lambda u: mp.exp(-u), QUICK)
        assert _close(res.value, 1, "1e-20")

    def test_gamma_three(self):
        res = _half_line(lambda u: u * u * mp.exp(-u), QUICK)
        assert _close(res.value, 2, "1e-19")

    def test_slow_exponential_rate(self):
        # q^(-1/2) ln(1/q) after the substitution: singular at q = 0
        res = _half_line(lambda u: u * mp.exp(-u / 2), QUICK)
        assert _close(res.value, 4, "1e-19")

    def test_gaussian(self):
        res = _half_line(lambda u: mp.exp(-u * u), QUICK)
        assert _close(res.value, mp.sqrt(mp.pi) / 2, "1e-19")

    def test_sech(self):
        res = _half_line(mp.sech, QUICK)
        assert _close(res.value, mp.pi / 2, "1e-19")

    def test_runs_at_eval_digits(self):
        # the exp route's half-line kernel, summed in integers, builds its
        # node tables at eval_digits and the caller's depth
        cfg = PrecisionConfig(target_digits=20, working_digits=33)
        _, coeffs, _, _ = zeta_mod._degree_setup(3, cfg)
        _ts_level_columns.cache_clear()
        integrate_01_fixed(partial(zeta_mod._exp_term, coeffs), cfg)
        built = _ts_level_columns.cache_info().currsize
        assert built >= 2
        _ts_level_columns(cfg.eval_digits, _node_depth(cfg), 0)
        _ts_level_columns(cfg.eval_digits, _node_depth(cfg), 1)
        assert _ts_level_columns.cache_info().currsize == built

    def test_growing_integrand_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_LEVELS", 4)
        small = PrecisionConfig(target_digits=15, working_digits=30)
        with pytest.raises(NonConvergenceError):
            _half_line(lambda u: u / (1 + u), small)


class TestAsech:
    def test_branch_point_value(self):
        with mp.workdps(40):
            assert asech_stable(1) == 0

    def test_matches_library_on_grid(self):
        with mp.workdps(50):
            for i in range(1, 100):
                u = mp.mpf(i) / 100
                assert abs(asech_stable(u) - mp.asech(u)) < mp.mpf("1e-48")

    def test_near_one_expansion(self):
        # asech(1 - d) = sqrt(2d) (1 + 5d/12 + 43 d^2/160 + O(d^3))
        with mp.workdps(60):
            d = mp.mpf("1e-10")
            got = asech_stable(1 - d)
            series = mp.sqrt(2 * d) * (1 + 5 * d / 12 + 43 * d**2 / 160)
            assert abs(got - series) / got < mp.mpf("1e-28")

    def test_near_zero_expansion(self):
        # asech(u) = ln(2/u) - u^2/4 - 3 u^4/32 - O(u^6)
        with mp.workdps(60):
            u = mp.mpf("1e-6")
            got = asech_stable(u)
            series = mp.log(2 / u) - u**2 / 4 - 3 * u**4 / 32
            assert abs(got - series) < mp.mpf("1e-30")

    def test_domain(self):
        for bad in (0, -1, mp.mpf("1.001")):
            with pytest.raises(ValueError):
                asech_stable(bad)

    def test_exact_complement_beyond_precision(self):
        # u rounds to 1 at 50 digits; the complement still fixes the value
        # asech(1 - d) = sqrt(2d) (1 + 5d/12 + ...)
        with mp.workdps(50):
            d = mp.mpf("1e-70")
            assert 1 - d == 1
            got = asech_stable(1 - d, d)
            assert abs(got / mp.sqrt(2 * d) - 1) < mp.mpf("1e-48")
            assert asech_stable(1 - d) == 0


class TestNegLog:
    def test_matches_library_on_grid(self):
        with mp.workdps(50):
            for i in range(1, 100):
                q = mp.mpf(i) / 100
                assert abs(neglog_stable(q) + mp.log(q)) <= mp.mpf("1e-48") * -mp.log(q)

    def test_exact_complement_beyond_precision(self):
        # -log(1 - d) = d + d^2/2 + ... even where 1 - d rounds to 1
        with mp.workdps(50):
            d = mp.mpf("1e-70")
            assert abs(neglog_stable(1 - d, d) / d - 1) < mp.mpf("1e-48")
            assert abs(neglog_stable(mp.mpf("1e-300")) / (300 * mp.ln10) - 1) < mp.mpf("1e-48")

    def test_domain(self):
        for bad in (0, -1, mp.mpf("1.001")):
            with pytest.raises(ValueError):
                neglog_stable(bad)


def _moment_integrand(n):
    """u^(2n-1)/asech(u), the mpf reference for integral_In."""
    return lambda u, d, _, asech: u ** (2 * n - 1) / asech


def _assert_matches_mpf(got, want, cfg):
    """Same levels and node count, and the value within
    10^-(eval_digits - 5) relative."""
    assert (got.levels, got.nodes_used) == (want.levels, want.nodes_used)
    with mp.workdps(cfg.eval_digits + 10):
        tol = mp.mpf(10) ** (5 - cfg.eval_digits)
        assert abs(got.value - want.value) <= tol * want.value


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
        # integral_In sums the node table's integer columns; the mpf
        # integrand reading the table's asech(u) column agrees with it,
        # and that column agrees with asech_stable at every node, within
        # 10^(2 - dps) relative.  Warm and cold tables, and two
        # precisions in one session, so a table shared across
        # precisions fails.
        configs = [PrecisionConfig(d, d + 20) for d in (30, 100)]
        for _ in range(2):
            for cfg in configs:
                for n in range(1, 7):
                    seen = []

                    def f(u, d, _, asech, e=2 * n - 1):
                        seen.append((u, d, asech))
                        return u**e / asech

                    _assert_matches_mpf(integral_In(n, cfg), integrate_01_singular(f, cfg), cfg)
                    with mp.workdps(cfg.eval_digits):
                        tol = mp.mpf(10) ** (2 - cfg.eval_digits)
                        for u, d, asech in seen:
                            want = asech_stable(u, d)
                            assert abs(asech - want) <= tol * want
            _ts_level_nodes.cache_clear()

    @pytest.mark.parametrize("digits, n", _MOMENT_GRID)
    def test_integer_sums_match_mpf_reference(self, digits, n):
        # integral_In sums Fa X^(n-1) in integers; the mpf integrand
        # u^(2n-1)/asech(u) on integrate_01_singular is the reference
        cfg = PrecisionConfig(digits, digits + 20)
        want = integrate_01_singular(_moment_integrand(n), cfg)
        _assert_matches_mpf(integral_In(n, cfg), want, cfg)

    @pytest.mark.parametrize("digits", [15, 30, 100])
    @pytest.mark.parametrize("n", [140, 180, 400])
    def test_large_n(self, n, digits):
        # at level k >= 1 the first nodes sit near u = 1/2, where
        # u^(2n-1) is negligible; the tail rule must reach the mass near
        # 1 - u ~ 1/n.  Second scheme to the target; the Laplace leading
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
    # depth 87 reaches past 45 digits, so the deepest u_plus round to 1
    def test_unit_interval_nodes_strictly_interior(self):
        for level in (0, 1, 3):
            for minus, plus, w in _ts_level_nodes(45, 87, level):
                assert 0 < minus[0] < plus[0] <= 1
                assert w > 0

    def test_unit_interval_nodes_are_mirror_pairs(self):
        # each member's complement is the other member
        with mp.workdps(45):
            eps = mp.mpf("1e-43")
            for minus, plus, _ in _ts_level_nodes(45, 87, 1):
                assert minus[:2] == plus[1::-1]
                assert abs((minus[0] + plus[0]) - 1) < eps

    def test_depth_only_extends_the_range(self):
        # a deeper table holds the shallower one as its prefix, and no
        # boundary gap falls below 10^-depth
        for level in (2, 3):
            shallow = _ts_level_nodes(45, 47, level)
            deep = _ts_level_nodes(45, 87, level)
            assert deep[: len(shallow)] == shallow
            assert len(deep) > len(shallow)
            for depth, nodes in ((47, shallow), (87, deep)):
                assert min(minus[0] for minus, _, _ in nodes) >= mp.mpf(10) ** -depth

    def test_half_line_nodes_positive_and_split(self):
        # read as half-line nodes u = ln(1/q), the minus side lies beyond
        # ln 2 and the plus side below it, all positive
        with mp.workdps(45):
            for minus, plus, _ in _ts_level_nodes(45, 87, 0):
                assert minus[2] > mp.ln2
                assert 0 < plus[2] < mp.ln2

    def test_refinement_levels_are_disjoint(self):
        level0 = _ts_level_nodes(45, 87, 0)
        level1 = _ts_level_nodes(45, 87, 1)
        coarse = {(minus[0], plus[0]) for minus, plus, _ in level0}
        fine = {(minus[0], plus[0]) for minus, plus, _ in level1}
        assert coarse and fine
        assert not coarse & fine

    def test_deep_nodes_pass_exact_complements(self):
        # at 70 digits and depth 127 the deepest u_plus round to exactly 1;
        # the integrand must still see distinct nonzero 1 - u, and the
        # carried ln(1/u) and asech(u) must match the oracles built from
        # that complement, within 10^(2 - dps) relative, at every node
        cfg = PrecisionConfig(60, 70)
        seen = []

        def f(u, d, log_recip, asech):
            seen.append((u, d, log_recip, asech))
            return 1 / mp.sqrt(d)

        integrate_01_singular(f, cfg)
        deep = [node for node in seen if node[0] == 1]
        assert len(deep) >= 10
        assert all(node[1] > 0 for node in deep)
        for column in (1, 2, 3):
            assert len({node[column] for node in deep}) == len(deep)
        with mp.workdps(cfg.eval_digits):
            tol = mp.mpf(10) ** (2 - cfg.eval_digits)
            for u, d, log_recip, asech in seen:
                for got, want in ((log_recip, neglog_stable(u, d)), (asech, asech_stable(u, d))):
                    assert abs(got - want) <= tol * want

    def test_node_state_is_bounded(self):
        # a session that sweeps precisions (hypothesis, zeta_sweep) must
        # not keep every node table it ever built
        maxsize = _ts_level_columns.cache_info().maxsize
        assert maxsize == _NODE_TABLES_KEPT
        for target in range(1, maxsize + 2):
            zeta_mod.zeta_via_exp_kernel(3, PrecisionConfig(target, target + 10))
        assert _ts_level_columns.cache_info().currsize <= maxsize

    def test_mpf_node_state_is_bounded(self):
        # the tests' mpf node tables keep the same bound
        maxsize = _ts_level_nodes.cache_info().maxsize
        assert maxsize == _NODE_TABLES_KEPT
        for target in range(1, maxsize + 2):
            cfg = PrecisionConfig(target, target + 10)
            integrate_01_singular(lambda u, d, *_: u, cfg)
        assert _ts_level_nodes.cache_info().currsize <= maxsize


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
# u, 1/(1+u), w (1-u)/ln(1/u), u^2, w u/asech(u): the documented bound
# of each column, in units of 2^-P
_COLUMN_BOUND = (1, 2, 1, 3, 1)


def _assert_columns_match_oracle(eval_dps: int, depth: int, level: int):
    """The production columns against _fixed_columns of the mpf node
    table 20 digits higher, at the production P; returns them."""
    prec = _fixed_bits(eval_dps)
    got = _ts_level_columns(eval_dps, depth, level)
    with mp.workdps(eval_dps + 20):
        want = [
            (_fixed_columns(*minus, w, prec), _fixed_columns(*plus, w, prec))
            for minus, plus, w in _ts_level_nodes(eval_dps + 20, depth, level)
        ]
    assert len(got) == len(want)
    for k, (pair, ref) in enumerate(zip(got, want)):
        assert pair[0][0] + pair[1][0] == 1 << prec
        for member, ref_member in zip(pair, ref):
            for column, (a, b, bound) in enumerate(zip(member, ref_member, _COLUMN_BOUND)):
                assert abs(a - b) <= bound, (eval_dps, level, k, column, a - b)
    return got


class TestNodeColumns:
    """The production node table (_ts_level_columns, integers only)
    against its oracle, the mpf table 20 digits higher."""

    @pytest.mark.parametrize("eval_dps, target", _COLUMN_GRID)
    def test_match_the_mpf_oracle(self, eval_dps, target):
        depth = 2 * target + 7
        deep = 0
        for level in range(4):
            for minus, plus in _assert_columns_match_oracle(eval_dps, depth, level):
                if minus[0] == 0:
                    # q < 2^-P: u_plus rounds to 1, the weighted columns
                    # still carry the node
                    deep += 1
                    assert plus[0] == plus[3] == 1 << _fixed_bits(eval_dps)
                    assert plus[4] > 0
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
        # columns once, as the member whose u column is 2^(P-1)
        prec = _fixed_bits(cfg.eval_digits)
        seen = []

        def kernel(bits):
            def term(columns):
                seen.append(columns)
                return columns[4]

            return term

        integrate_01_fixed(kernel, cfg)
        (centre,) = [c for c in seen if c[0] == 1 << prec - 1]
        with mp.workdps(cfg.eval_digits + 20):
            want = _fixed_columns(*quadrature._centre(), mp.pi / 4, prec)
        for column, (a, b, bound) in enumerate(zip(centre, want, _COLUMN_BOUND)):
            assert abs(a - b) <= bound, (column, a - b)

    @pytest.mark.slow
    def test_library_precision_above_the_cli(self):
        # 800 digits, past the CLI's 300: same columns as the oracle
        for level in (0, 1):
            _assert_columns_match_oracle(800, 2 * 780 + 7, level)


class TestTailRule:
    def test_truncates_only_after_the_peak(self):
        eps = mp.mpf("1e-10")
        rising = [mp.mpf(10) ** -k for k in range(40, 0, -1)]
        falling = [mp.mpf(10) ** -k for k in range(1, 20)]
        total, used, last = _tail_sum(iter(rising + falling), eps)
        # every rising term is summed; the fall stops 3 terms below eps
        assert used == len(rising) + 12
        assert abs(total - sum(rising + falling[:12])) < mp.mpf("1e-45")
        assert last == falling[11]

    def test_never_peaking_sequence_is_summed_whole(self):
        terms = [mp.mpf(10) ** -30] * 50
        total, used, last = _tail_sum(iter(terms), mp.mpf("1e-10"))
        assert used == 50
        assert last == terms[-1]


def _half_line_nodes_by_sinh(eval_dps: int, depth: int, level: int):
    """The nodes from textbook formulas, each quantity on its own, with
    s = (pi/2) sinh t: u_minus = e^-s / (2 cosh s),
    w = pi cosh(t) / (4 cosh(s)^2), the half-line abscissae
    ln(1/u_minus) = 2s + log1p(e^-2s), ln(1/u_plus) = log1p(e^-2s), and
    asech(u) = acosh(1/u) with 1/u_minus = 1 + e^2s and
    1/u_plus = 1 + e^-2s, taken at depth more digits so that 1 + e^-2s
    does not round to 1."""
    with mp.workdps(eval_dps):
        t_max = mp.asinh(depth * mp.log(10) / mp.pi)
        h = mp.mpf(1) / 2**level
        step = 1 if level == 0 else 2
        out = []
        k = 1
        t = k * h
        while t <= t_max:
            s = mp.pi * mp.sinh(t) / 2
            tail = mp.log1p(mp.exp(-2 * s))
            with mp.workdps(eval_dps + depth):
                s_wide = mp.pi * mp.sinh(t) / 2
                asech_minus = mp.acosh(1 + mp.exp(2 * s_wide))
                asech_plus = mp.acosh(1 + mp.exp(-2 * s_wide))
            out.append((
                mp.exp(-s) / (2 * mp.cosh(s)),
                mp.pi * mp.cosh(t) / (4 * mp.cosh(s) ** 2),
                2 * s + tail,
                tail,
                +asech_minus,
                +asech_plus,
            ))
            k += step
            t = k * h
        return out


class TestHalfLineNodes:
    """The (0, 1) nodes read as half-line nodes u = ln(1/q), the
    abscissae the exp route evaluates its kernel at, and the asech(u)
    the moments and the asech route divide by."""

    @pytest.mark.parametrize("dps", [45, 212, 330])
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_match_sinh_cosh_formulas(self, dps, level):
        depth = 2 * dps
        got = _ts_level_nodes(dps, depth, level)
        want = _half_line_nodes_by_sinh(dps, depth, level)
        assert len(got) == len(want)
        with mp.workdps(dps):
            tol = mp.mpf(10) ** (3 - dps)
            for (minus, plus, w), ref in zip(got, want):
                um_ref, w_ref, x_minus, x_plus, a_minus, a_plus = ref
                assert abs(minus[0] - um_ref) <= tol * um_ref
                assert abs(w - w_ref) <= tol * w_ref
                assert abs(minus[2] - x_minus) <= tol * x_minus
                assert abs(plus[2] - x_plus) <= tol * x_plus
                assert abs(minus[3] - a_minus) <= tol * a_minus
                assert abs(plus[3] - a_plus) <= tol * a_plus

    @pytest.mark.parametrize("dps", [45, 212])
    def test_sides_are_complements_at_shared_t(self, dps):
        # e^-x on the two sides of one t adds up to 1
        with mp.workdps(dps):
            tol = mp.mpf(10) ** (1 - dps)
            for minus, plus, _ in _ts_level_nodes(dps, dps, 2):
                assert abs(mp.exp(-minus[2]) + mp.exp(-plus[2]) - 1) <= tol
