"""Portfolio selection under fuzzy random returns.

The toolkit reformulates a necessity-based chance-constrained portfolio
problem into a deterministic parametric LP, solves it exactly by a
greedy oracle, and independently by an imperialist competitive
algorithm with penalty-based constraint handling.

The names below are the entry points; everything else lives in
``fuzzfolio.fuzzy``, ``model``, ``oracle``, ``penalty`` and ``ica``.
"""

from .errors import BudgetInfeasibleError, ValidationError
from .ica import IcaConfig
from .io import bundled_instance, load_instance, write_instance
from .model import ConfidenceLevels, necessity_certificate, reformulate
from .oracle import solve_exact
from .penalty import PenaltyConfig

__version__ = "0.1.0"

__all__ = [
    "BudgetInfeasibleError",
    "ValidationError",
    "IcaConfig",
    "bundled_instance",
    "load_instance",
    "write_instance",
    "ConfidenceLevels",
    "necessity_certificate",
    "reformulate",
    "solve_exact",
    "PenaltyConfig",
]
