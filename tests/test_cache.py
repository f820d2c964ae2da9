"""The verified table is the package's only cache of B(n, l).

It lives in process memory: entries are stored only after the closed
form and the series oracle agree, and a filled table keeps growing on
demand.
"""

from fractions import Fraction

import pytest

from zetaodd import bernoulli
from zetaodd.bernoulli import GenBernoulliTable, TableConsistencyError, gen_bernoulli


@pytest.fixture
def small_table():
    table = GenBernoulliTable()
    table.ensure(8, 8)
    return table


def test_tamper_detection_names_entry(monkeypatch, small_table):
    # B(1, 1) = -1/2; a plausible-looking wrong closed form is refused
    real = bernoulli.gen_bernoulli

    def tampered(n, l):
        return Fraction(-1, 3) if (n, l) == (1, 1) else real(n, l)

    monkeypatch.setattr(bernoulli, "gen_bernoulli", tampered)
    fresh = GenBernoulliTable()
    with pytest.raises(TableConsistencyError, match=r"B\(1, 1\)"):
        fresh.value(1, 1)
    assert (1, 1) not in fresh

    # a stored entry altered in memory is caught when its column grows
    small_table._entries[(1, 1)] = Fraction(-1, 3)
    with pytest.raises(TableConsistencyError, match=r"B\(1, 1\)"):
        small_table.value(20, 1)


def test_loaded_table_can_keep_growing(small_table):
    assert small_table.column_extent(2) == 8
    assert small_table.value(10, 2) == gen_bernoulli(10, 2)
    assert small_table.column_extent(2) >= 10
    assert small_table.value(3, 9) == gen_bernoulli(3, 9)
    assert small_table.max_order == 9
