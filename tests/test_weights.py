import math
from fractions import Fraction

import pytest

import zetaodd.bernoulli as bernoulli
from zetaodd.weights import (
    back_substitute,
    coeff_b,
    d_coefficients,
    s_constant,
    solve_weights,
    triangular_system,
)

KNOWN_WEIGHTS = {
    3: (1, -3, 2),
    5: (-1, 15, -50, 60, -24),
    7: (1, -63, 602, -2100, 3360, -2520, 720),
    9: (-1, 255, -6050, 46620, -166824, 317520, -332640, 181440, -40320),
}

KNOWN_ROWS = {
    1: (1,),
    2: (1, 1),
    3: (2, 3, 2),
    4: (6, 12, 11, 6),
    5: (24, 60, 70, 50, 24),
    6: (120, 360, 510, 450, 274, 120),
    7: (720, 2520, 4200, 4410, 3248, 1764, 720),
}


class TestMatrixEntries:
    def test_diagonal_and_first_row_are_one(self):
        for l in range(1, 21):
            assert coeff_b(l, l) == 1
            assert coeff_b(1, l) == 1

    def test_examples(self):
        assert coeff_b(2, 3) == Fraction(3, 2)
        assert coeff_b(4, 5) == Fraction(5, 2)
        assert coeff_b(2, 6) == Fraction(137, 60)

    def test_domain(self):
        with pytest.raises(ValueError):
            coeff_b(0, 3)
        with pytest.raises(ValueError):
            coeff_b(4, 3)

    @pytest.mark.parametrize("l", sorted(KNOWN_ROWS))
    def test_scaled_rows(self, l):
        scaled = tuple(math.factorial(l - 1) * c for c in d_coefficients(l))
        assert scaled == KNOWN_ROWS[l]

    def test_rows_are_palindromic_at_ends(self):
        # first and last scaled entries are both (l-1)!
        for l in range(1, 12):
            row = d_coefficients(l)
            assert row[0] == 1
            assert row[-1] == 1


class TestSConstant:
    def test_values(self):
        assert s_constant(1) == 1
        assert s_constant(2) == 1
        assert s_constant(3) == -2
        assert s_constant(4) == -6
        assert s_constant(5) == 24
        assert s_constant(6) == 120
        assert s_constant(7) == -720

    def test_odd_sign_alternates(self):
        for m in range(3, 30, 2):
            assert s_constant(m) == (-1) ** ((m - 1) // 2) * math.factorial(m - 1)

    def test_domain(self):
        with pytest.raises(ValueError):
            s_constant(0)


class TestSolve:
    @pytest.mark.parametrize("m", sorted(KNOWN_WEIGHTS))
    def test_published_vectors(self, m):
        wv = solve_weights(m)
        assert wv.weights == tuple(Fraction(x) for x in KNOWN_WEIGHTS[m])
        assert wv.s_m == s_constant(m)

    def test_degree_one(self):
        assert solve_weights(1).weights == (Fraction(-1),)

    @pytest.mark.parametrize("m", list(range(1, 13)))
    def test_solution_satisfies_every_row(self, m):
        system = triangular_system(m)
        wv = solve_weights(m)
        for j in range(1, m + 1):
            total = sum(
                (system[(j, l)] * wv.weight(l) for l in range(j, m + 1)),
                Fraction(0),
            )
            assert total == (-s_constant(m) if j == m else 0)

    def test_weights_sum_to_zero(self):
        for m in range(2, 16):
            assert sum(solve_weights(m).weights) == 0

    def test_last_weight_is_minus_s(self):
        # both parities, up to the CLI's limit
        for m in [*range(1, 16), 100, 101]:
            wv = solve_weights(m)
            assert wv.s_m == s_constant(m)
            assert wv.weight(m) == -wv.s_m

    def test_weight_accessor_bounds(self):
        wv = solve_weights(5)
        with pytest.raises(ValueError):
            wv.weight(0)
        with pytest.raises(ValueError):
            wv.weight(6)

    def test_system_entry_domain(self):
        system = triangular_system(4)
        assert system[(4, 4)] == 1
        with pytest.raises(KeyError):
            system[(3, 2)]

    def test_cold_solve_builds_each_row_once(self, monkeypatch):
        # the paper's system is built diagonal by diagonal, so a degree-103
        # system builds each of its 103 Bernoulli rows once, and its
        # entries are the entry-by-entry build's (whole columns, from the
        # first, a middle and the last)
        built = []
        real = bernoulli._row_terms

        def counted(n):
            built.append(n)
            return real(n)

        monkeypatch.setattr(bernoulli, "_row_terms", counted)
        system = triangular_system(103)
        assert sorted(built) == list(range(103))
        assert back_substitute(system, 103).weight(103) == -s_constant(103)
        for l in (1, 2, 52, 103):
            assert [system[(j, l)] for j in range(1, l + 1)] == [
                coeff_b(j, l) for j in range(1, l + 1)
            ]

    def test_closed_form_reads_no_bernoulli_row(self, monkeypatch):
        def unexpected(n):
            raise AssertionError(f"Bernoulli row {n} read")

        monkeypatch.setattr(bernoulli, "_row_terms", unexpected)
        wv = solve_weights(101)
        assert wv.weight(101) == -math.factorial(100)

    @pytest.mark.slow
    def test_closed_form_matches_the_paper_solve_to_101(self):
        system = triangular_system(101)
        for m in range(1, 102):
            assert solve_weights(m) == back_substitute(system, m), m

    def test_domain(self):
        with pytest.raises(ValueError):
            solve_weights(0)

    def test_one_system_serves_every_smaller_degree(self):
        # and the paper's solve agrees with the closed form at each degree
        system = triangular_system(41)
        for m in range(1, 42):
            assert back_substitute(system, m) == solve_weights(m), m
        with pytest.raises(KeyError):
            back_substitute(triangular_system(5), 6)
