import mpmath as mp
import pytest

from zetaodd.quadrature import (
    DEFAULT_PRECISION,
    NonConvergenceError,
    PrecisionConfig,
    _node_depth,
    _tail_sum,
    _ts_level_nodes,
    asech_stable,
    at_nodes,
    clear_node_caches,
    integral_In,
    integral_In_crosscheck,
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
    substitute q = e^-u and integrate g(ln(1/q)) / q over (0, 1)."""
    return integrate_01_singular(lambda q, d: g(neglog_stable(q, d)) / q, cfg)


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
        with pytest.raises(ValueError):
            PrecisionConfig(max_levels=2)


class TestUnitInterval:
    def test_polynomial(self):
        res = integrate_01_singular(lambda u, d: u, QUICK)
        assert _close(res.value, mp.mpf(1) / 2, "1e-20")
        assert res.nodes_used > 0
        assert res.levels >= 2

    def test_inverse_sqrt_right_endpoint(self):
        res = integrate_01_singular(lambda u, d: 1 / mp.sqrt(d), QUICK)
        assert _close(res.value, 2, "1e-19")

    def test_inverse_sqrt_left_endpoint(self):
        res = integrate_01_singular(lambda u, d: 1 / mp.sqrt(u), QUICK)
        assert _close(res.value, 2, "1e-19")

    def test_beta_both_endpoints(self):
        res = integrate_01_singular(lambda u, d: mp.sqrt(u / d), QUICK)
        assert _close(res.value, mp.pi / 2, "1e-19")

    def test_log_singularity(self):
        res = integrate_01_singular(lambda u, d: mp.log(u), QUICK)
        assert _close(res.value, -1, "1e-19")

    def test_divergent_integrand_raises(self):
        small = PrecisionConfig(target_digits=15, working_digits=30, max_levels=4)
        with pytest.raises(NonConvergenceError) as exc:
            integrate_01_singular(lambda u, d: 1 / d, small)
        assert exc.value.best_value is not None

    def test_error_estimate_is_honest(self):
        res = integrate_01_singular(lambda u, d: 1 / mp.sqrt(d), DEFAULT_PRECISION)
        assert _close(res.value, 2, res.error_estimate + mp.mpf("1e-30"))


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
        cfg = PrecisionConfig(target_digits=20, working_digits=33)
        clear_node_caches()
        _half_line(lambda u: mp.exp(-u), cfg)
        built = _ts_level_nodes.cache_info().currsize
        assert built >= 2
        _ts_level_nodes(cfg.eval_digits, _node_depth(cfg), 0)
        _ts_level_nodes(cfg.eval_digits, _node_depth(cfg), 1)
        assert _ts_level_nodes.cache_info().currsize == built

    def test_growing_integrand_raises(self):
        small = PrecisionConfig(target_digits=15, working_digits=30, max_levels=4)
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
        # integrand f(u, 1 - u) must give the same bits, with warm and
        # with cold tables, and two precisions in one session must not
        # share values
        configs = [PrecisionConfig(d, d + 20) for d in (30, 100)]
        for _ in range(2):
            for cfg in configs:
                for n in range(1, 7):
                    e = 2 * n - 1
                    got = integral_In(n, cfg)
                    want = integrate_01_singular(
                        lambda u, d, e=e: u**e / asech_stable(u, d), cfg
                    )
                    assert got.value == want.value
                    assert got.error_estimate == want.error_estimate
                    assert got.nodes_used == want.nodes_used
                    assert got.levels == want.levels
            clear_node_caches()

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
        clear_node_caches()
        second = integral_In(1, QUICK)
        assert second is not first
        assert second.value == first.value
        assert second.nodes_used == first.nodes_used


class TestNodeTables:
    # depth 87 reaches past 45 digits, so the deepest u_plus round to 1
    def test_unit_interval_nodes_strictly_interior(self):
        for level in (0, 1, 3):
            for u_minus, u_plus, w in _ts_level_nodes(45, 87, level):
                assert 0 < u_minus < u_plus <= 1
                assert w > 0

    def test_unit_interval_nodes_are_mirror_pairs(self):
        with mp.workdps(45):
            eps = mp.mpf("1e-43")
            for u_minus, u_plus, _ in _ts_level_nodes(45, 87, 1):
                assert abs((u_minus + u_plus) - 1) < eps

    def test_depth_only_extends_the_range(self):
        # a deeper table holds the shallower one as its prefix, and no
        # boundary gap falls below 10^-depth
        for level in (2, 3):
            shallow = _ts_level_nodes(45, 47, level)
            deep = _ts_level_nodes(45, 87, level)
            assert deep[: len(shallow)] == shallow
            assert len(deep) > len(shallow)
            for depth, nodes in ((47, shallow), (87, deep)):
                assert min(um for um, _, _ in nodes) >= mp.mpf(10) ** -depth

    def test_half_line_nodes_positive_and_split(self):
        # read as half-line nodes u = ln(1/q), the minus side lies beyond
        # ln 2 and the plus side below it, all positive
        with mp.workdps(45):
            for u_minus, u_plus, _ in _ts_level_nodes(45, 87, 0):
                assert neglog_stable(u_minus, u_plus) > mp.ln2
                assert 0 < neglog_stable(u_plus, u_minus) < mp.ln2

    def test_refinement_levels_are_disjoint(self):
        level0 = _ts_level_nodes(45, 87, 0)
        level1 = _ts_level_nodes(45, 87, 1)
        coarse = {(um, up) for um, up, _ in level0}
        fine = {(um, up) for um, up, _ in level1}
        assert coarse and fine
        assert not coarse & fine

    def test_deep_nodes_pass_exact_complements(self):
        # at 50 digits and depth 87 the deepest u_plus round to exactly 1;
        # the integrand must still see distinct nonzero 1 - u, and the
        # per-node tables must keep one entry per node pair
        cfg = PrecisionConfig(40, 50)
        seen = []

        def f(u, d):
            seen.append((u, d))
            return 1 / mp.sqrt(d)

        clear_node_caches()
        integrate_01_singular(f, cfg)
        deep = [(u, d) for u, d in seen if u == 1]
        assert len(deep) >= 10
        assert all(d > 0 for _, d in deep)
        assert len({d for _, d in deep}) == len(deep)
        for fn in (asech_stable, neglog_stable):
            table = at_nodes(fn, cfg.eval_digits)
            with mp.workdps(cfg.eval_digits):
                values = [table(u, d) for u, d in deep]
                assert values == [fn(u, d) for u, d in deep]
            assert len(set(values)) == len(deep)


class TestTailRule:
    def test_truncates_only_after_the_peak(self):
        eps = mp.mpf("1e-10")
        rising = [mp.mpf(10) ** -k for k in range(40, 0, -1)]
        falling = [mp.mpf(10) ** -k for k in range(1, 20)]
        total, used = _tail_sum(iter(rising + falling), eps)
        # every rising term is summed; the fall stops 3 terms below eps
        assert used == len(rising) + 12
        assert abs(total - sum(rising + falling[:12])) < mp.mpf("1e-45")

    def test_never_peaking_sequence_is_summed_whole(self):
        terms = [mp.mpf(10) ** -30] * 50
        total, used = _tail_sum(iter(terms), mp.mpf("1e-10"))
        assert used == 50


def _half_line_nodes_by_sinh(eval_dps: int, depth: int, level: int):
    """The nodes from textbook formulas, each quantity on its own, with
    s = (pi/2) sinh t: u_minus = e^-s / (2 cosh s),
    w = pi cosh(t) / (4 cosh(s)^2), and the half-line abscissae
    ln(1/u_minus) = 2s + log1p(e^-2s), ln(1/u_plus) = log1p(e^-2s)."""
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
            out.append((
                mp.exp(-s) / (2 * mp.cosh(s)),
                mp.pi * mp.cosh(t) / (4 * mp.cosh(s) ** 2),
                2 * s + tail,
                tail,
            ))
            k += step
            t = k * h
        return out


class TestHalfLineNodes:
    """The (0, 1) nodes read as half-line nodes u = ln(1/q): the
    abscissae the exp route evaluates its kernel at."""

    @pytest.mark.parametrize("dps", [45, 212])
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_match_sinh_cosh_formulas(self, dps, level):
        depth = 2 * dps
        got = _ts_level_nodes(dps, depth, level)
        want = _half_line_nodes_by_sinh(dps, depth, level)
        assert len(got) == len(want)
        with mp.workdps(dps):
            tol = mp.mpf(10) ** (3 - dps)
            for (um, up, w), (um_ref, w_ref, x_minus, x_plus) in zip(got, want):
                assert abs(um - um_ref) <= tol * um_ref
                assert abs(w - w_ref) <= tol * w_ref
                assert abs(neglog_stable(um, up) - x_minus) <= tol * x_minus
                assert abs(neglog_stable(up, um) - x_plus) <= tol * x_plus

    @pytest.mark.parametrize("dps", [45, 212])
    def test_sides_are_complements_at_shared_t(self, dps):
        # e^-x on the two sides of one t adds up to 1
        with mp.workdps(dps):
            tol = mp.mpf(10) ** (1 - dps)
            for um, up, _ in _ts_level_nodes(dps, dps, 2):
                x_minus = neglog_stable(um, up)
                x_plus = neglog_stable(up, um)
                assert abs(mp.exp(-x_minus) + mp.exp(-x_plus) - 1) <= tol
