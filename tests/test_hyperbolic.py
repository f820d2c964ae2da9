from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaodd.hyperbolic import (
    partial_fraction_residual,
    q_coeff,
    tau_row,
    tau_top,
)
from zetaodd.verify import _q_recursion_row, _tau_by_weights
from zetaodd.weights import back_substitute, solve_weights, triangular_system


class TestQCoefficients:
    def test_leading_is_one(self):
        for l in range(1, 30):
            assert q_coeff(1, l) == 1

    @pytest.mark.parametrize(
        "l,row",
        [
            (3, (1, -1)),
            (4, (1, -2)),
            (5, (1, -3, 1)),
            (8, (1, -6, 10, -4)),
            (10, (1, -8, 21, -20, 5)),
            (15, (1, -13, 66, -165, 210, -126, 28, -1)),
        ],
    )
    def test_known_rows(self, l, row):
        top = (l + 1) // 2
        assert tuple(q_coeff(j, l) for j in range(1, top + 1)) == row

    def test_chebyshev_closed_form(self):
        # the Chebyshev-U closed form reproduces the paper's recursion
        for l in range(1, 41):
            row = [q_coeff(j, l) for j in range(1, (l + 1) // 2 + 1)]
            assert row == _q_recursion_row(l)

    def test_domain(self):
        with pytest.raises(ValueError):
            q_coeff(0, 5)
        with pytest.raises(ValueError):
            q_coeff(4, 5)  # ceil(5/2) = 3
        with pytest.raises(ValueError):
            q_coeff(1, 0)


class TestPartialFractions:
    @pytest.mark.parametrize("l", [1, 2, 3, 5, 8, 12])
    @pytest.mark.parametrize("u", ["0.3", "1.0", "2.7"])
    def test_residual_negligible(self, l, u):
        with mp.workdps(40):
            assert partial_fraction_residual(l, mp.mpf(u)) < mp.mpf("1e-30")

    @given(st.integers(1, 12), st.floats(0.05, 3.5))
    @settings(max_examples=60)
    def test_residual_negligible_random(self, l, u):
        with mp.workdps(40):
            assert partial_fraction_residual(l, u) < mp.mpf("1e-28")

    def test_domain(self):
        with pytest.raises(ValueError):
            partial_fraction_residual(0, 1.0)
        with pytest.raises(ValueError):
            partial_fraction_residual(3, 0)


class TestTau:
    def test_first_coefficient(self):
        assert tau_row(3) == {2: Fraction(1, 7)}

    @pytest.mark.parametrize(
        "m,expected",
        [
            (5, {2: Fraction(-1, 93), 3: Fraction(1, 31)}),
            (7, {2: Fraction(2, 5715), 3: Fraction(-2, 381), 4: Fraction(1, 127)}),
            (
                9,
                {
                    2: Fraction(-1, 160965),
                    3: Fraction(1, 2555),
                    4: Fraction(-1, 511),
                    5: Fraction(1, 511),
                },
            ),
        ],
    )
    def test_rows(self, m, expected):
        assert tau_row(m) == expected

    def test_top_matches_general_route(self):
        for n in range(1, 11):
            assert tau_top(n) == tau_row(2 * n + 1)[n + 1]

    def test_top_values(self):
        # the central factorial row's top entry meets tau_top's closed form
        for n in range(1, 41):
            assert tau_row(2 * n + 1)[n + 1] == Fraction(1, 2 ** (2 * n + 1) - 1)

    def test_domain(self):
        for m in (6, 4, 2, 1, 0, -3):
            with pytest.raises(ValueError):
                tau_row(m)
        with pytest.raises(ValueError):
            tau_top(0)

    def test_row_covers_quadrature_range(self):
        # j = 1 is left out: tau(1, m) = front * sum_l w_l = 0
        row = tau_row(11)
        assert sorted(row) == [2, 3, 4, 5, 6]
        assert sum(solve_weights(11).weights) == 0

    @pytest.mark.slow
    def test_row_past_the_cli_range_matches_the_weight_solve(self):
        # tau* = tau is observed, not proved; check 11 covers odd m <= 101
        m = 121
        q_rows = {l: _q_recursion_row(l) for l in range(1, m + 1)}
        weights = back_substitute(triangular_system(m), m).weights
        assert tau_row(m) == _tau_by_weights(m, weights, q_rows)
