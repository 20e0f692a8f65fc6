"""Exterior penalty transformation and a deterministic budget repair.

Box bounds are not penalized; the optimizer clamps positions instead.
The return-threshold constraint can be genuinely unsatisfiable at high
confidence levels, so by default it is reported post hoc rather than
penalized; ``enforce_threshold`` restores the fully penalized form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetInfeasibleError, ValidationError
from .model import DeterministicLP

__all__ = ["PenaltyConfig", "penalized_objective_batch", "penalized_objective_bound", "repair"]

# factor of the quadratic return-floor charge under enforce_threshold
INEQ_FACTOR = 0.5


@dataclass(frozen=True)
class PenaltyConfig:
    """The budget penalty factor, and whether the return floor is charged too
    (at INEQ_FACTOR); both charges are quadratic.

    The factors are deliberately mild: the final answer is budget-repaired
    anyway, and a heavy equality penalty makes cost differences reflect
    budget noise instead of allocation quality, which measurably stalls
    the population search.  A quadratic factor F caps the search's budget
    drift near max(c) / (2F), about 1% of the worked example's budget.
    """

    eq_factor: float = 0.5
    enforce_threshold: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.eq_factor) and self.eq_factor > 0):
            raise ValidationError(
                f"eq_factor must be finite and positive, got {self.eq_factor}", field="eq_factor"
            )


def penalized_objective_batch(lp: DeterministicLP, x: np.ndarray, cfg: PenaltyConfig = PenaltyConfig()) -> np.ndarray:
    """c . x minus the penalty charges, for one allocation (n,) or a batch (k, n)."""
    x = np.asarray(x, dtype=float)
    # a row's value must not depend on its batch: a matrix-vector product rounds a
    # row by its place in it, and ** 2.0 calls pow on a single allocation's scalar
    value = (x * lp.coefficients).sum(axis=-1)
    drift = x.sum(axis=-1) - lp.total_fund
    penalty = cfg.eq_factor * (drift * drift)
    if cfg.enforce_threshold:
        shortfall = np.maximum(0.0, lp.threshold - value)
        penalty = penalty + INEQ_FACTOR * (shortfall * shortfall)
    return value - penalty


def penalized_objective_bound(lp: DeterministicLP, cfg: PenaltyConfig = PenaltyConfig()) -> float:
    """Upper bound on |penalized objective| over the box; inf when it overflows."""
    with np.errstate(over="ignore"):
        value = float(np.abs(lp.coefficients) @ lp.upper_bounds)
        drift = max(lp.total_fund, float(lp.upper_bounds.sum()) - lp.total_fund)
    bound = value + cfg.eq_factor * drift * drift
    if cfg.enforce_threshold:
        shortfall = abs(lp.threshold) + value
        bound += INEQ_FACTOR * shortfall * shortfall
    return bound


def repair(x, m0: float, upper) -> np.ndarray:
    """Project an allocation onto {sum(x) = m0, 0 <= x <= upper}.

    Clamps to the box, then settles the budget: a deficit is spread in
    proportion to the remaining headroom (which cannot overshoot any
    bound), a surplus is removed in proportion to current mass.  Repeats
    until the residual is under 1e-12 of the budget, so reapplying the
    repair returns its input bitwise.
    """
    upper = np.asarray(upper, dtype=float)
    if float(upper.sum()) < m0:
        raise BudgetInfeasibleError(
            f"upper bounds sum to {float(upper.sum())}, below the budget {m0}"
        )
    x = np.clip(np.asarray(x, dtype=float), 0.0, upper)
    tol = 1e-12 * max(1.0, abs(m0))
    for _ in range(100):
        residual = m0 - float(x.sum())
        if abs(residual) <= tol:
            break
        if residual > 0:
            headroom = upper - x
            total_headroom = float(headroom.sum())
            if total_headroom <= 0.0:
                break
            x = x + residual * (headroom / total_headroom)
        else:
            x = x * (m0 / float(x.sum()))
        x = np.clip(x, 0.0, upper)
    return x
