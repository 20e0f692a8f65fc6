"""Portfolio model: from fuzzy random returns to a crisp parametric LP.

At probability level lambda and necessity level eta, the chance-and-
necessity constrained selection problem collapses to a deterministic LP
over dollar allocations x:

    maximize   c . x
    subject to sum(x) = total_fund,  0 <= x_j <= U_j

with c_j = r0_j + T*(1 - lambda) * r2_j - eta * beta_j, where T* is the
normal quantile of the random factor; the reformulation is exact
because the left shoulders are linear.  The return-floor constraint has
the same left side as the objective, so it is carried as a scalar
threshold and checked against the optimal value instead of being kept
as a row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import BudgetInfeasibleError, ValidationError
from .fuzzy import (
    FuzzyRandomReturn,
    RandomFactor,
    necessity_geq_scalar,
    normal_quantile,
    observe,
    weighted_sum,
)

__all__ = [
    "PortfolioInstance",
    "ConfidenceLevels",
    "DeterministicLP",
    "ResidualReport",
    "CertificateReport",
    "reformulate",
    "objective",
    "residuals",
    "necessity_certificate",
]


@dataclass(frozen=True)
class PortfolioInstance:
    """Assets, target return, budget, box bounds, and the random factor."""

    assets: tuple[FuzzyRandomReturn, ...]
    target: FuzzyRandomReturn
    total_fund: float
    upper_bounds: tuple[float, ...]
    factor: RandomFactor = field(default_factory=RandomFactor)

    def __post_init__(self):
        object.__setattr__(self, "assets", tuple(self.assets))
        u = tuple(float(b) for b in self.upper_bounds)
        object.__setattr__(self, "upper_bounds", u)
        if len(self.assets) < 1:
            raise ValidationError("at least one asset is required")
        if len(u) != len(self.assets):
            raise ValidationError(
                f"expected {len(self.assets)} upper bounds, got {len(u)}"
            )
        if not all(math.isfinite(b) and b > 0 for b in u):
            raise ValidationError("upper bounds must be finite and positive")
        if not (math.isfinite(self.total_fund) and self.total_fund > 0):
            raise ValidationError(f"total fund must be positive, got {self.total_fund}")
        if sum(u) < self.total_fund:
            raise BudgetInfeasibleError(
                f"upper bounds sum to {sum(u)}, below the total fund {self.total_fund}"
            )

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @cached_property
    def _asset_columns(self) -> np.ndarray:
        """The assets' r0, r2 and beta as three rows of a (3, n) array."""
        return np.array([(a.r0, a.r2, a.beta) for a in self.assets], dtype=float).T

    @cached_property
    def _bounds(self) -> np.ndarray:
        """The upper bounds as a read-only array, shared by every level's LP."""
        u = np.array(self.upper_bounds)
        u.setflags(write=False)
        return u


@dataclass(frozen=True)
class ConfidenceLevels:
    """Probability level lambda and necessity level eta, both in (0, 1)."""

    lam: float
    eta: float

    def __post_init__(self):
        for name, field_name, v in (("lambda", "lam", self.lam), ("eta", "eta", self.eta)):
            if not 0.0 < v < 1.0:
                raise ValidationError(f"{name} must lie strictly in (0, 1), got {v}", field=field_name)
        # reformulate takes the normal quantile at 1 - lambda, which must stay below 1
        if 1.0 - self.lam == 1.0:
            raise ValidationError(f"lambda {self.lam} is too close to 0: 1 - lambda rounds to 1", field="lam")


@dataclass(frozen=True)
class DeterministicLP:
    """The crisp problem: maximize c . x on the budget slice of a box.
    ``reformulate`` produces it, from an instance whose bounds absorb the fund."""

    coefficients: np.ndarray
    total_fund: float
    upper_bounds: np.ndarray
    threshold: float
    levels: ConfidenceLevels

    @property
    def n(self) -> int:
        return int(self.coefficients.size)


def reformulate(instance: PortfolioInstance, levels: ConfidenceLevels) -> DeterministicLP:
    """Build the deterministic LP for the given confidence levels.

    Pure function: identical inputs produce bitwise-identical coefficient
    vectors.  Raises ValidationError naming the first asset, or the
    target, whose coefficient overflows.
    """
    t_star = normal_quantile(1.0 - levels.lam, instance.factor)
    # eta, taken through 1 - eta as the shoulder's inverse gives it: the
    # round trip moves some levels (0.1 among them) one ulp, and the
    # reported coefficients keep that rounding
    l_star = 1.0 - (1.0 - levels.eta)
    r0, r2, beta = instance._asset_columns
    with np.errstate(over="ignore", invalid="ignore"):
        c = r0 + t_star * r2 - l_star * beta
    tgt = instance.target
    threshold = tgt.r0 + t_star * tgt.r2 - tgt.beta * l_star
    if not (np.isfinite(c).all() and math.isfinite(threshold)):
        bad = np.flatnonzero(~np.isfinite(c))
        where = f"assets[{bad[0]}]: the coefficient" if bad.size else "target: the return threshold"
        raise ValidationError(
            f"{where} overflows at lambda={levels.lam}, eta={levels.eta}; rescale the instance")
    c.setflags(write=False)
    return DeterministicLP(c, instance.total_fund, instance._bounds, threshold, levels)


def objective(lp: DeterministicLP, x: Sequence[float]) -> float:
    """The crisp objective c . x; also the left side of the threshold check."""
    x = np.asarray(x, dtype=float)
    if x.shape != lp.coefficients.shape:
        raise ValueError(f"allocation shape {x.shape} does not match {lp.coefficients.shape}")
    return float(lp.coefficients @ x)


# feasibility tolerances of residuals: budget equality, threshold, box bounds
EQ_TOL = 1e-6
INEQ_TOL = 1e-9
BOX_TOL = 1e-9


@dataclass(frozen=True)
class ResidualReport:
    budget_residual: float
    threshold_residual: float
    bound_violations: np.ndarray
    feasible: bool


def residuals(lp: DeterministicLP, x: Sequence[float]) -> ResidualReport:
    """Constraint diagnostics for an allocation, with a feasibility verdict."""
    x = np.asarray(x, dtype=float)
    thresh = objective(lp, x) - lp.threshold  # raises on a shape mismatch
    budget = float(x.sum() - lp.total_fund)
    viol = np.maximum(x - lp.upper_bounds, 0.0) + np.maximum(-x, 0.0)
    feasible = (
        abs(budget) <= EQ_TOL and thresh >= -INEQ_TOL and float(viol.max()) <= BOX_TOL
    )
    return ResidualReport(budget, thresh, viol, feasible)


@dataclass(frozen=True)
class CertificateReport:
    """Empirical check of the reformulation at one allocation.

    ``probability`` estimates Pr{ necessity(Z(t) >= f) >= eta } from seeded
    normal draws, built from observe + weighted_sum + the scalar necessity
    closed form, with no reuse of the reformulated coefficients.
    """

    threshold: float
    probability: float
    std_error: float
    prob_level: float
    meets_level: bool
    crisp_value: float
    crisp_holds: bool
    n_samples: int


def necessity_certificate(
    instance: PortfolioInstance,
    levels: ConfidenceLevels,
    x: Sequence[float],
    n_samples: int = 10_000,
    rng: np.random.Generator | int = 0,
    margin: float = 0.0,
) -> CertificateReport:
    """Monte Carlo validation of the crisp reformulation at allocation x.

    The tested scalar is f = c . x - margin.  The caller is responsible
    for x being budget- and box-feasible.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    lp = reformulate(instance, levels)
    crisp_value = objective(lp, x)
    f = crisp_value - margin
    weights = [float(w) for w in x]
    draws = rng.normal(instance.factor.mean, instance.factor.std_dev, size=n_samples)
    hits = 0
    for t in draws.tolist():
        obs = [observe(a, t) for a in instance.assets]
        z = weighted_sum(obs, weights)
        if necessity_geq_scalar(z, f) >= levels.eta:
            hits += 1
    p = hits / n_samples
    se = math.sqrt(p * (1.0 - p) / n_samples)
    return CertificateReport(
        threshold=f,
        probability=p,
        std_error=se,
        prob_level=levels.lam,
        meets_level=p >= levels.lam,
        crisp_value=crisp_value,
        crisp_holds=crisp_value >= f,
        n_samples=n_samples,
    )
