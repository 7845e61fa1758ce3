"""American put boundary and price via product integration on a rational basis.

The early exercise boundary solves a weakly singular Volterra integral
equation; it is discretized by interpolating the smooth kernel factor with
barycentric rational (Floater-Hormann or Berrut) weights and integrating
the singular factor exactly, then solved by sequential scalar Newton
steps.  The option price follows from the early-exercise-premium
representation with the matching interpolatory quadrature, validated
against a CRR binomial oracle.
"""

from .market import (
    ConfigurationError,
    MarketParams,
    binomial_american_put,
    d1d2,
    european_put,
    norm_cdf,
)
from .barycentric import (
    BaryBasis,
    basis_matrix,
    eval_interpolant,
    fh_basis,
    fh_weights,
    lebesgue_constant,
)
from .quadrature import (
    brq_weights,
    product_weights,
)
from .boundary import (
    BFH,
    BoundaryCurve,
    FH,
    SolveDiagnostics,
    SolverConfig,
    SolverError,
    clear_weight_cache,
    collocation_residuals,
    eval_boundary,
    initial_boundary,
    perpetual_lower_bound,
    solve_boundary,
)
from .pricing import (
    PriceResult,
    american_call_price,
    american_put_price,
    error_bound_factor,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "MarketParams",
    "binomial_american_put",
    "d1d2",
    "european_put",
    "norm_cdf",
    "BaryBasis",
    "basis_matrix",
    "eval_interpolant",
    "fh_basis",
    "fh_weights",
    "lebesgue_constant",
    "brq_weights",
    "product_weights",
    "BFH",
    "BoundaryCurve",
    "FH",
    "SolveDiagnostics",
    "SolverConfig",
    "SolverError",
    "clear_weight_cache",
    "collocation_residuals",
    "eval_boundary",
    "initial_boundary",
    "perpetual_lower_bound",
    "solve_boundary",
    "PriceResult",
    "american_call_price",
    "american_put_price",
    "error_bound_factor",
    "__version__",
]
