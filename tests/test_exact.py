from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetaodd.exact import binomial, factorial, format_rational


class TestBinomial:
    def test_small_values(self):
        assert binomial(0, 0) == 1
        assert binomial(5, 2) == 10
        assert binomial(10, 10) == 1

    def test_out_of_range_lower_index_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0
        assert binomial(0, 1) == 0

    def test_negative_upper_index_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(0, 60), st.integers(-5, 65))
    def test_pascal_rule(self, a, b):
        assert binomial(a + 1, b) == binomial(a, b) + binomial(a, b - 1)


class TestFactorial:
    def test_values(self):
        assert factorial(0) == 1
        assert factorial(6) == 720

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            factorial(-1)


class TestRationalText:
    @pytest.mark.parametrize(
        "value,text",
        [
            (Fraction(0), "0"),
            (Fraction(7), "7"),
            (Fraction(-50), "-50"),
            (Fraction(25, 12), "25/12"),
            (Fraction(-1, 3), "-1/3"),
            (Fraction(2, 4), "1/2"),
        ],
    )
    def test_format(self, value, text):
        assert format_rational(value) == text

    def test_format_accepts_int(self):
        assert format_rational(-720) == "-720"

    @pytest.mark.parametrize("text", ["0", "7", "-50", "25/12", "-1/3"])
    def test_parse_round_trip(self, text):
        assert format_rational(Fraction(text)) == text

    @given(
        st.integers(-(10**12), 10**12),
        st.integers(1, 10**12),
    )
    def test_round_trip_random(self, num, den):
        x = Fraction(num, den)
        assert Fraction(format_rational(x)) == x

    @given(st.fractions())
    def test_format_is_canonical(self, x):
        text = format_rational(x)
        assert "+" not in text
        assert not text.endswith("/1")
        back = Fraction(text)
        assert back == x
