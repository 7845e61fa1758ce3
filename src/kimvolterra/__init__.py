"""American put boundary and price via product integration on a rational basis.

The early exercise boundary solves a weakly singular Volterra integral
equation; it is discretized by interpolating the smooth kernel factor with
barycentric rational (Floater-Hormann or Berrut) weights and integrating
the singular factor exactly, then solved by sequential scalar Newton
steps.  The option price follows from the early-exercise-premium
representation with the matching interpolatory quadrature, validated
against a CRR binomial oracle.
"""

from . import barycentric, boundary, market, pricing
from .market import *
from .barycentric import *
from .quadrature import brq_weights, product_weights
from .boundary import *
from .pricing import *

__version__ = "0.1.0"

__all__ = [*market.__all__, *barycentric.__all__, "brq_weights", "product_weights",
           *boundary.__all__, *pricing.__all__, "__version__"]
