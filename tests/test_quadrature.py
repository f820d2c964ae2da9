import mpmath as mp
import pytest

from zetaodd.quadrature import (
    DEFAULT_PRECISION,
    NonConvergenceError,
    PrecisionConfig,
    _es_level_nodes,
    _ts_level_nodes,
    asech_stable,
    clear_node_caches,
    integral_In,
    integral_In_crosscheck,
    integrate_01_singular,
    integrate_0inf_decaying,
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


class TestPrecisionConfig:
    def test_defaults(self):
        assert DEFAULT_PRECISION.target_digits == 30
        assert DEFAULT_PRECISION.working_digits == 50
        assert DEFAULT_PRECISION.eval_digits == 72

    def test_eval_floor_tracks_target(self):
        assert PrecisionConfig(40, 100).eval_digits == 100
        assert PrecisionConfig(40, 52).eval_digits == 92

    def test_half_line_digits_round_working_up_to_tens(self):
        assert DEFAULT_PRECISION.half_line_digits == 50
        assert PrecisionConfig(30, 51).half_line_digits == 60
        assert PrecisionConfig(40, 52).half_line_digits == 60
        assert PrecisionConfig(90, 200).half_line_digits == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            PrecisionConfig(target_digits=0)
        with pytest.raises(ValueError):
            PrecisionConfig(target_digits=30, working_digits=35)
        with pytest.raises(ValueError):
            PrecisionConfig(max_levels=2)


class TestUnitInterval:
    def test_polynomial(self):
        res = integrate_01_singular(lambda u: u, QUICK)
        assert _close(res.value, mp.mpf(1) / 2, "1e-20")
        assert res.nodes_used > 0
        assert res.levels >= 2

    def test_inverse_sqrt_right_endpoint(self):
        res = integrate_01_singular(lambda u: 1 / mp.sqrt(1 - u), QUICK)
        assert _close(res.value, 2, "1e-19")

    def test_inverse_sqrt_left_endpoint(self):
        res = integrate_01_singular(lambda u: 1 / mp.sqrt(u), QUICK)
        assert _close(res.value, 2, "1e-19")

    def test_beta_both_endpoints(self):
        res = integrate_01_singular(
            lambda u: mp.sqrt(u) / mp.sqrt(1 - u), QUICK
        )
        assert _close(res.value, mp.pi / 2, "1e-19")

    def test_log_singularity(self):
        res = integrate_01_singular(mp.log, QUICK)
        assert _close(res.value, -1, "1e-19")

    def test_divergent_integrand_raises(self):
        small = PrecisionConfig(target_digits=15, working_digits=30, max_levels=4)
        with pytest.raises(NonConvergenceError) as exc:
            integrate_01_singular(lambda u: 1 / (1 - u), small)
        assert exc.value.best_value is not None

    def test_error_estimate_is_honest(self):
        res = integrate_01_singular(lambda u: 1 / mp.sqrt(1 - u), DEFAULT_PRECISION)
        assert _close(res.value, 2, res.error_estimate + mp.mpf("1e-30"))


class TestHalfLine:
    def test_exponential(self):
        res = integrate_0inf_decaying(lambda u: mp.exp(-u), QUICK)
        assert _close(res.value, 1, "1e-20")

    def test_gamma_three(self):
        res = integrate_0inf_decaying(lambda u: u * u * mp.exp(-u), QUICK)
        assert _close(res.value, 2, "1e-19")

    def test_slow_exponential_rate(self):
        res = integrate_0inf_decaying(lambda u: u * mp.exp(-u / 2), QUICK)
        assert _close(res.value, 4, "1e-19")

    def test_gaussian(self):
        res = integrate_0inf_decaying(lambda u: mp.exp(-u * u), QUICK)
        assert _close(res.value, mp.sqrt(mp.pi) / 2, "1e-19")

    def test_sech(self):
        res = integrate_0inf_decaying(mp.sech, QUICK)
        assert _close(res.value, mp.pi / 2, "1e-19")

    def test_runs_at_half_line_digits(self):
        cfg = PrecisionConfig(target_digits=20, working_digits=33)
        clear_node_caches()
        integrate_0inf_decaying(lambda u: mp.exp(-u), cfg)
        built = _es_level_nodes.cache_info().currsize
        assert built >= 2
        _es_level_nodes(cfg.half_line_digits, 0)
        _es_level_nodes(cfg.half_line_digits, 1)
        assert _es_level_nodes.cache_info().currsize == built

    def test_growing_integrand_raises(self):
        small = PrecisionConfig(target_digits=15, working_digits=30, max_levels=4)
        with pytest.raises(NonConvergenceError):
            integrate_0inf_decaying(lambda u: u / (1 + u), small)


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


class TestMomentIntegrals:
    def test_value_against_frozen_reference(self):
        res = integral_In(1, DEFAULT_PRECISION)
        assert _close(res.value, mp.mpf(I1_REFERENCE), "1e-29")

    def test_memoized(self):
        a = integral_In(2, DEFAULT_PRECISION)
        b = integral_In(2, DEFAULT_PRECISION)
        assert a is b

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
        assert again is first  # equal configs share the memo slot

    def test_asech_table_matches_direct_integrand(self):
        # integral_In reads asech from a shared per-node table; the plain
        # integrand must give the same bits, with warm and with cold
        # tables, and two precisions in one session must not share values
        configs = [PrecisionConfig(d, d + 20) for d in (30, 100)]
        for _ in range(2):
            for cfg in configs:
                for n in range(1, 7):
                    e = 2 * n - 1
                    got = integral_In(n, cfg)
                    want = integrate_01_singular(
                        lambda u, e=e: u**e / asech_stable(u), cfg
                    )
                    assert got.value == want.value
                    assert got.error_estimate == want.error_estimate
                    assert got.nodes_used == want.nodes_used
                    assert got.levels == want.levels
            clear_node_caches()

    def test_cache_reset_reproduces_bit_identical_value(self):
        first = integral_In(1, QUICK)
        clear_node_caches()
        second = integral_In(1, QUICK)
        assert second is not first
        assert second.value == first.value
        assert second.nodes_used == first.nodes_used


class TestNodeTables:
    def test_unit_interval_nodes_strictly_interior(self):
        for level in (0, 1, 3):
            for u_minus, u_plus, w in _ts_level_nodes(45, level):
                assert 0 < u_minus < u_plus < 1
                assert w > 0

    def test_unit_interval_nodes_are_mirror_pairs(self):
        with mp.workdps(45):
            eps = mp.mpf("1e-43")
            for u_minus, u_plus, _ in _ts_level_nodes(45, 1):
                assert abs((u_minus + u_plus) - 1) < eps

    def test_half_line_nodes_positive_and_split(self):
        toward_zero, toward_inf = _es_level_nodes(45, 0)
        assert all(0 < x < 1 for x, _ in toward_zero)
        assert all(x > 1 for x, _ in toward_inf)
        assert all(w > 0 for _, w in toward_zero + toward_inf)

    def test_refinement_levels_are_disjoint(self):
        level0 = _ts_level_nodes(45, 0)
        level1 = _ts_level_nodes(45, 1)
        coarse = {u for um, up, _ in level0 for u in (um, up)}
        fine = {u for um, up, _ in level1 for u in (um, up)}
        assert coarse and fine
        assert not coarse & fine


def _es_level_nodes_by_sinh(eval_dps: int, level: int):
    """Exp-sinh nodes from the textbook formulas, each side on its own:
    s = (pi/2) sinh t, x = exp(-+s), w = (pi/2) cosh(t) x."""
    with mp.workdps(eval_dps):
        depth = mp.mpf(eval_dps + 10) * mp.log(10)
        bounds = (mp.asinh(2 * depth / mp.pi), mp.asinh(4 * depth / mp.pi))
        h = mp.mpf(1) / 2**level
        step = 1 if level == 0 else 2
        sides = []
        for sign, bound in zip((-1, 1), bounds):
            side = []
            k = 1
            t = k * h
            while t <= bound:
                x = mp.exp(sign * mp.pi * mp.sinh(t) / 2)
                side.append((x, mp.pi * mp.cosh(t) * x / 2))
                k += step
                t = k * h
            sides.append(side)
        return sides


class TestHalfLineNodes:
    @pytest.mark.parametrize("dps", [45, 212])
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_match_sinh_cosh_formulas(self, dps, level):
        got = _es_level_nodes(dps, level)
        want = _es_level_nodes_by_sinh(dps, level)
        with mp.workdps(dps):
            tol = mp.mpf(10) ** (3 - dps)
            for got_side, want_side in zip(got, want):
                assert len(got_side) == len(want_side)
                for (x, w), (x_ref, w_ref) in zip(got_side, want_side):
                    assert abs(x - x_ref) <= tol * x_ref
                    assert abs(w - w_ref) <= tol * w_ref

    @pytest.mark.parametrize("dps", [45, 212])
    def test_sides_are_reciprocal_at_shared_t(self, dps):
        toward_zero, toward_inf = _es_level_nodes(dps, 2)
        assert len(toward_zero) < len(toward_inf)
        with mp.workdps(dps):
            tol = mp.mpf(10) ** (1 - dps)
            for (x_zero, _), (x_inf, _) in zip(toward_zero, toward_inf):
                assert abs(x_zero * x_inf - 1) <= tol
