import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetaodd

_SUBMODULES = ("bernoulli", "weights", "hyperbolic", "quadrature", "zeta", "verify", "cli")


@pytest.mark.parametrize("name", (None,) + _SUBMODULES)
def test_every_exported_name_resolves(name):
    module = zetaodd if name is None else importlib.import_module(f"zetaodd.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize(
    "name",
    [
        "tau", "binomial", "factorial", "format_rational", "ExactRational",
        "integrate_01_singular", "asech_stable", "neglog_stable",
    ],
)
def test_removed_names_are_gone(name):
    # tau_row is the one tau accessor; the stdlib's math.comb,
    # math.factorial, Fraction and str stand in for the rest; integer
    # kernels on integrate_01_fixed, whose node table carries ln(1/u) and
    # asech(u) inside its columns, replace the mpf integrator
    assert not hasattr(zetaodd, name)
    assert name not in zetaodd.__all__
    for sub in _SUBMODULES:
        assert name not in importlib.import_module(f"zetaodd.{sub}").__all__


def test_exact_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("zetaodd.exact")


def test_verify_stays_off_the_cold_import_path():
    # only the verify command loads the checks; every other command, and
    # `import zetaodd`, compiles and runs none of them
    src = str(Path(zetaodd.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = "import sys, zetaodd, zetaodd.cli; print('zetaodd.verify' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("name", ["CheckResult", "run_checks"])
def test_checks_live_in_verify_only(name):
    assert name not in zetaodd.__all__
    assert not hasattr(zetaodd, name)
    assert name in importlib.import_module("zetaodd.verify").__all__
