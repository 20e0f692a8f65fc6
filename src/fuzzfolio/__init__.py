"""Portfolio selection under fuzzy random returns.

The toolkit reformulates a necessity-based chance-constrained portfolio
problem into a deterministic parametric LP, solves it exactly by a
greedy oracle, and independently by an imperialist competitive
algorithm with penalty-based constraint handling.
"""

from .errors import BudgetInfeasibleError, EnumerationLimitError, ValidationError
from .fuzzy import (
    LINEAR,
    STANDARD_NORMAL,
    FuzzyRandomReturn,
    LRFuzzyNumber,
    RandomFactor,
    ReferenceFunction,
    alpha_cut,
    membership,
    necessity_geq_fuzzy,
    necessity_geq_scalar,
    normal_quantile,
    observe,
    ref_pseudo_inverse,
    register_reference,
    weighted_sum,
)
from .ica import IcaConfig, IterationRecord, RunReport
from .io import bundled_instance, bundled_names, load_instance, loads_instance, write_instance
from .model import (
    CertificateReport,
    ConfidenceLevels,
    DeterministicLP,
    PortfolioInstance,
    ResidualReport,
    Tolerances,
    necessity_certificate,
    objective,
    reformulate,
    residuals,
)
from .oracle import ExactSolution, brute_force, solve_exact
from .penalty import PenaltyConfig, penalized_objective, repair

__version__ = "0.1.0"

__all__ = [
    "BudgetInfeasibleError",
    "EnumerationLimitError",
    "ValidationError",
    "LINEAR",
    "STANDARD_NORMAL",
    "FuzzyRandomReturn",
    "LRFuzzyNumber",
    "RandomFactor",
    "ReferenceFunction",
    "alpha_cut",
    "membership",
    "necessity_geq_fuzzy",
    "necessity_geq_scalar",
    "normal_quantile",
    "observe",
    "ref_pseudo_inverse",
    "register_reference",
    "weighted_sum",
    "IcaConfig",
    "IterationRecord",
    "RunReport",
    "bundled_instance",
    "bundled_names",
    "load_instance",
    "loads_instance",
    "write_instance",
    "CertificateReport",
    "ConfidenceLevels",
    "DeterministicLP",
    "PortfolioInstance",
    "ResidualReport",
    "Tolerances",
    "necessity_certificate",
    "objective",
    "reformulate",
    "residuals",
    "ExactSolution",
    "brute_force",
    "solve_exact",
    "PenaltyConfig",
    "penalized_objective",
    "repair",
]
