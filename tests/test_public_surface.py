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


_NUMERIC = ("zetaodd.verify", "mpmath", "zetaodd.quadrature", "zetaodd.zeta")


def _cold_python(code: str, *args: str) -> str:
    """stdout of ``code`` run by a fresh interpreter that imports this
    checkout's zetaodd."""
    src = str(Path(zetaodd.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_verify_stays_off_the_cold_import_path():
    # only the verify command loads the checks, and only the numeric
    # names load mpmath, quadrature and zeta; `import zetaodd` and the
    # CLI module load none of them
    code = (
        "import sys, zetaodd, zetaodd.cli; "
        f"print([m for m in {_NUMERIC!r} if m in sys.modules])"
    )
    assert _cold_python(code) == "[]\n"


_RUN_CLI = """
import contextlib, io, sys
from zetaodd.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:  # --help
        code = exc.code
print(code, "mpmath" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["weights", "--m", "5"],
        ["tau", "--m", "9"],
        ["linform", "--n", "3"],
        ["scan", "--to", "5"],
        *(["bernoulli", "--n", "4", "--l", "2", "--format", fmt]
          for fmt in ("text", "json", "csv")),
        *(["bernoulli", "--max-n", "3", "--max-l", "3", "--format", fmt]
          for fmt in ("text", "json", "csv")),
        ["--help"],
    ],
    ids=" ".join,
)
def test_exact_commands_never_load_mpmath(argv):
    assert _cold_python(_RUN_CLI, *argv) == "0 False\n"


@pytest.mark.parametrize(
    "argv",
    [["zeta", "--m", "3", "--digits", "15"], ["integral", "--n", "1", "--digits", "15"]],
    ids=" ".join,
)
def test_numeric_commands_load_mpmath(argv):
    # the control: the same probe sees mpmath where a command needs it
    assert _cold_python(_RUN_CLI, *argv) == "0 True\n"


def test_lazy_names_are_listed():
    assert set(zetaodd.__all__) <= set(dir(zetaodd))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from zetaodd import *", namespace)
    assert [name for name in zetaodd.__all__ if name not in namespace] == []


@pytest.mark.parametrize(
    "name, module",
    [("PrecisionConfig", "quadrature"), ("NonConvergenceError", "quadrature"),
     ("zeta_report", "zeta"), ("linear_form_residual", "zeta")],
)
def test_lazy_names_are_the_module_objects(name, module):
    assert getattr(zetaodd, name) is getattr(importlib.import_module(f"zetaodd.{module}"), name)


@pytest.mark.parametrize(
    "name", ["LinearForm", "linear_form", "ScanRow", "ScanReport", "dimension_scan"]
)
def test_exact_forms_live_in_hyperbolic(name):
    hyperbolic = importlib.import_module("zetaodd.hyperbolic")
    assert name in hyperbolic.__all__
    assert name not in importlib.import_module("zetaodd.zeta").__all__
    assert getattr(zetaodd, name) is getattr(hyperbolic, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        zetaodd.no_such_name  # noqa: B018


@pytest.mark.parametrize("name", ["CheckResult", "run_checks"])
def test_checks_live_in_verify_only(name):
    assert name not in zetaodd.__all__
    assert not hasattr(zetaodd, name)
    assert name in importlib.import_module("zetaodd.verify").__all__
