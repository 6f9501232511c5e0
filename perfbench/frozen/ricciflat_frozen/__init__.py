"""Circle-invariant Ricci-flat Kahler metrics on canonical bundles, built as
truncated power series in the moment-map variable, with independent residual
verification, closed-form oracles and majorant convergence checks."""

from .geometry import InitialData, builtin_metric
from .jets import Jet, TJet, context
from .solver import Solution, SolverConfig, solve

__version__ = "0.1.0"

__all__ = [
    "InitialData",
    "Jet",
    "Solution",
    "SolverConfig",
    "TJet",
    "builtin_metric",
    "context",
    "solve",
    "__version__",
]
