"""zetaodd: exact weight systems and high-precision integral
representations of the Riemann zeta function at odd integers.

The exact layer (generalized Bernoulli numbers, weight vectors, tau
coefficients, telescoping linear forms) runs entirely in integer and
:class:`fractions.Fraction` arithmetic: nothing rounds until a value is
explicitly handed to mpmath for evaluation.  The numeric layer
evaluates the associated singular integrals with double-exponential
quadrature and cross-checks every route against mpmath's own zeta.

``import zetaodd`` loads the exact layer only.  The numeric names
(quadrature, zeta routes and reports) resolve on first access, which
imports :mod:`zetaodd.quadrature` or :mod:`zetaodd.zeta`, and with them
mpmath; a process that only asks for exact values never loads any of
the three.
"""

import importlib

from .bernoulli import gen_bernoulli, gen_bernoulli_poly, series_oracle
from .hyperbolic import (
    LinearForm,
    ScanReport,
    ScanRow,
    dimension_scan,
    linear_form,
    partial_fraction_residual,
    q_coeff,
    tau_row,
    tau_top,
)
from .weights import (
    WeightVector,
    coeff_b,
    d_coefficients,
    s_constant,
    solve_weights,
    triangular_system,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # generalized Bernoulli numbers
    "gen_bernoulli",
    "gen_bernoulli_poly",
    "series_oracle",
    # weight systems
    "coeff_b",
    "d_coefficients",
    "s_constant",
    "triangular_system",
    "WeightVector",
    "solve_weights",
    # hyperbolic partial fractions
    "q_coeff",
    "partial_fraction_residual",
    "tau_top",
    "tau_row",
    # quadrature
    "PrecisionConfig",
    "DEFAULT_PRECISION",
    "QuadratureResult",
    "NonConvergenceError",
    "integral_In",
    "integral_In_crosscheck",
    # zeta routes and exact forms
    "zeta_reference",
    "zeta3_exp_integral",
    "zeta_via_exp_kernel",
    "zeta_via_asech_kernel",
    "ZetaReport",
    "zeta_report",
    "LinearForm",
    "linear_form",
    "linear_form_residual",
    "ScanRow",
    "ScanReport",
    "dimension_scan",
    "in_sequence_report",
]

# numeric name -> the submodule that defines it, imported on first access
_LAZY = dict.fromkeys(
    (
        "PrecisionConfig",
        "DEFAULT_PRECISION",
        "QuadratureResult",
        "NonConvergenceError",
        "integral_In",
        "integral_In_crosscheck",
    ),
    "quadrature",
) | dict.fromkeys(
    (
        "zeta_reference",
        "zeta3_exp_integral",
        "zeta_via_exp_kernel",
        "zeta_via_asech_kernel",
        "ZetaReport",
        "zeta_report",
        "linear_form_residual",
        "in_sequence_report",
    ),
    "zeta",
)


def __getattr__(name: str):
    # PEP 562: called only for names not yet in the module globals; the
    # value is cached there, so each name is resolved once
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
