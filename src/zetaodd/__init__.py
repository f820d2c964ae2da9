"""zetaodd: exact weight systems and high-precision integral
representations of the Riemann zeta function at odd integers.

The exact layer (generalized Bernoulli numbers, weight vectors, tau
coefficients, telescoping linear forms) runs entirely in integer and
:class:`fractions.Fraction` arithmetic: nothing rounds until a value is
explicitly handed to mpmath for evaluation.  The numeric layer
evaluates the associated singular integrals with double-exponential
quadrature and cross-checks every route against mpmath's own zeta.
"""

from .bernoulli import gen_bernoulli, gen_bernoulli_poly, series_oracle
from .hyperbolic import partial_fraction_residual, q_coeff, tau_row, tau_top
from .quadrature import (
    DEFAULT_PRECISION,
    NonConvergenceError,
    PrecisionConfig,
    QuadratureResult,
    integral_In,
    integral_In_crosscheck,
)
from .weights import (
    WeightVector,
    coeff_b,
    d_coefficients,
    s_constant,
    solve_weights,
    triangular_system,
)
from .zeta import (
    LinearForm,
    ScanReport,
    ScanRow,
    ZetaReport,
    dimension_scan,
    in_sequence_report,
    linear_form,
    linear_form_residual,
    zeta3_exp_integral,
    zeta_reference,
    zeta_report,
    zeta_via_asech_kernel,
    zeta_via_exp_kernel,
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
