import dataclasses
import importlib
import importlib.util
from pathlib import Path

import kimvolterra

# The exact public surface: adding or removing a name must change this set.
PUBLIC_NAMES = {
    "ConfigurationError",
    "MarketParams",
    "binomial_american_put",
    "european_put",
    "BaryBasis",
    "basis_matrix",
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
    "american_put_price",
    "error_bound_factor",
    "__version__",
}

# The settable fields of the solve's config and result types: each stored
# value is one fact; what can be derived from these is a property.
INIT_FIELDS = {
    "SolverConfig": ["n", "d", "family", "hybrid_m"],
    "BoundaryCurve": ["values", "basis", "params", "config", "diagnostics"],
    "SolveDiagnostics": ["iterations", "newton_steps", "flags", "wall_time", "weights_s",
                         "newton_s", "weights_cached"],
    "PriceResult": ["value", "european_part", "premium_part", "wall_time"],
}


def test_public_names_pinned():
    assert len(kimvolterra.__all__) == len(set(kimvolterra.__all__))
    assert set(kimvolterra.__all__) == PUBLIC_NAMES


def test_init_fields_pinned():
    init = {name: [f.name for f in dataclasses.fields(getattr(kimvolterra, name)) if f.init]
            for name in INIT_FIELDS}
    assert init == INIT_FIELDS


def test_public_names_resolve():
    missing = [name for name in kimvolterra.__all__ if not hasattr(kimvolterra, name)]
    assert missing == []


def test_benchmark_tracer_names_resolve():
    # the benchmark tracer wraps these names in their calling modules
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(mod, attr) for mod, attr, _ in tracer.LIBRARY_CALLS
               if not hasattr(importlib.import_module(f"kimvolterra.{mod}"), attr)]
    assert tracer.LIBRARY_CALLS and missing == []
