"""zetaodd: exact weight systems and high-precision integral
representations of the Riemann zeta function at odd integers.

The exact layer (generalized Bernoulli numbers, weight vectors, tau
coefficients, telescoping linear forms) runs entirely in rational
arithmetic; the numeric layer evaluates the associated singular
integrals with double-exponential quadrature and cross-checks every
route against an independent series oracle.
"""

from .bernoulli import gen_bernoulli, gen_bernoulli_poly, series_oracle
from .exact import ExactRational, binomial, factorial, format_rational
from .hyperbolic import (
    TauTable,
    partial_fraction_residual,
    q_coeff,
    tau,
    tau_row,
    tau_top,
)
from .quadrature import (
    DEFAULT_PRECISION,
    NonConvergenceError,
    PrecisionConfig,
    QuadratureResult,
    asech_stable,
    integral_In,
    integral_In_crosscheck,
    integrate_01_singular,
    neglog_stable,
)
from .verify import CheckResult, run_checks
from .weights import (
    TriangularSystem,
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
    # exact scalars
    "ExactRational",
    "binomial",
    "factorial",
    "format_rational",
    # generalized Bernoulli numbers
    "gen_bernoulli",
    "gen_bernoulli_poly",
    "series_oracle",
    # weight systems
    "coeff_b",
    "d_coefficients",
    "s_constant",
    "TriangularSystem",
    "triangular_system",
    "WeightVector",
    "solve_weights",
    # hyperbolic partial fractions
    "q_coeff",
    "partial_fraction_residual",
    "tau",
    "tau_top",
    "TauTable",
    "tau_row",
    # quadrature
    "PrecisionConfig",
    "DEFAULT_PRECISION",
    "QuadratureResult",
    "NonConvergenceError",
    "asech_stable",
    "neglog_stable",
    "integrate_01_singular",
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
    # self checks
    "CheckResult",
    "run_checks",
]
