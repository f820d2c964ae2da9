import importlib

import pytest

import zetaodd

_SUBMODULES = ("bernoulli", "weights", "hyperbolic", "quadrature", "zeta", "verify", "cli")


@pytest.mark.parametrize("name", (None,) + _SUBMODULES)
def test_every_exported_name_resolves(name):
    module = zetaodd if name is None else importlib.import_module(f"zetaodd.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", ["tau", "binomial", "factorial", "format_rational", "ExactRational"])
def test_removed_names_are_gone(name):
    # tau_row is the one tau accessor; the stdlib's math.comb,
    # math.factorial, Fraction and str stand in for the rest
    assert not hasattr(zetaodd, name)
    assert name not in zetaodd.__all__
    for sub in _SUBMODULES:
        assert name not in importlib.import_module(f"zetaodd.{sub}").__all__


def test_exact_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("zetaodd.exact")
