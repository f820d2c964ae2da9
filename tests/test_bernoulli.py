import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaodd.bernoulli import gen_bernoulli, gen_bernoulli_poly, gen_bernoulli_row, series_oracle

# classical Bernoulli numbers, the l = 1 column
CLASSICAL = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
]


class TestClosedForm:
    def test_classical_column(self):
        assert [gen_bernoulli(n, 1) for n in range(11)] == CLASSICAL

    @pytest.mark.parametrize("l", range(1, 13))
    def test_degree_zero_is_one(self, l):
        assert gen_bernoulli(0, l) == 1

    @pytest.mark.parametrize("l", range(1, 13))
    def test_degree_one_and_two(self, l):
        # two classical closed forms in the order parameter
        assert gen_bernoulli(1, l) == Fraction(-l, 2)
        assert gen_bernoulli(2, l) == Fraction(l * (3 * l - 1), 12)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_bernoulli(-1, 1)
        with pytest.raises(ValueError):
            gen_bernoulli(0, 0)
        with pytest.raises(ValueError):
            gen_bernoulli_row(3, (2, 0, 5))
        with pytest.raises(ValueError):
            gen_bernoulli_row(-1, ())
        assert gen_bernoulli_row(4, ()) == []


def _double_sum(n, l):
    # the closed-form double sum written out in full for every (n, l),
    # with no state shared between entries: the oracle for the row reader
    common = math.factorial(2 * n)
    acc = 0
    for k in range(n + 1):
        inner = sum(
            (-1) ** j * math.comb(k, j) * j ** (n + k) for j in range(k + 1)
        )
        acc += (
            math.comb(l + n, n - k)
            * math.comb(l + k - 1, k)
            * (common // math.factorial(n + k))
            * inner
        )
    return Fraction(acc * math.factorial(n), common)


class TestRowReader:
    def _check(self, n, orders, single_orders):
        expected = {l: _double_sum(n, l) for l in orders}
        assert gen_bernoulli_row(n, orders) == list(expected.values())
        # an entry read on its own builds its row for itself
        for l in single_orders:
            assert gen_bernoulli(n, l) == expected[l]

    def test_bit_identical_on_the_grid(self):
        for n in range(61):
            self._check(n, range(1, 62), single_orders=(1, 2, 31, 61))

    def test_bit_identical_on_the_deepest_row(self):
        orders = (1, 2, 50, 101, 300)
        self._check(100, orders, single_orders=orders)


class TestSeriesOracle:
    def test_matches_closed_form_rectangle(self):
        for l in range(1, 11):
            column = series_oracle(l, 10)
            assert column == [gen_bernoulli(n, l) for n in range(11)]

    @given(st.integers(0, 20), st.integers(1, 16))
    @settings(max_examples=40)
    def test_matches_closed_form_random(self, n, l):
        assert series_oracle(l, n)[n] == gen_bernoulli(n, l)

    def test_validation(self):
        with pytest.raises(ValueError):
            series_oracle(0, 5)


class TestReflection:
    @pytest.mark.parametrize("l", range(1, 7))
    def test_polynomial_at_order_reflects(self, l):
        for n in range(9):
            expected = gen_bernoulli(n, l)
            if n % 2:
                expected = -expected
            assert gen_bernoulli_poly(n, l, l) == expected

    def test_polynomial_basics(self):
        assert gen_bernoulli_poly(0, 3, Fraction(5, 7)) == 1
        # degree 1: x - l/2
        assert gen_bernoulli_poly(1, 4, Fraction(1, 2)) == Fraction(1, 2) - 2

    def test_polynomial_at_zero_is_plain_number(self):
        for l in range(1, 6):
            for n in range(8):
                assert gen_bernoulli_poly(n, l, 0) == gen_bernoulli(n, l)
