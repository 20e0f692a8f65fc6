"""Exterior penalty transformation and a deterministic budget repair.

Box bounds are not penalized; the optimizer clamps positions instead.
The return-threshold constraint can be genuinely unsatisfiable at high
confidence levels, so by default it is reported post hoc rather than
penalized; the ``IcaConfig`` field ``enforce_threshold`` restores the
fully penalized form.  Each c . x is model._row_sums of the products, as
in model.objective, so a cost never depends on the CPU's BLAS kernel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .model import DeterministicLP, _row_sums

if TYPE_CHECKING:  # for annotations only: ica imports this module at load time
    from .ica import IcaConfig

__all__ = ["penalized_objective_batch", "penalized_objective_bound", "repair"]

# factor of the quadratic return-floor charge under enforce_threshold
INEQ_FACTOR = 0.5


def penalized_objective_batch(c: np.ndarray, x, threshold, total_fund: float, config: IcaConfig) -> np.ndarray:
    """c . x minus the penalty charges on the budget total_fund and the return floor threshold: one
    allocation x (n,) against c (n,) and a float floor, or each row of x (k, n) against its own row of
    c (k, n) and its floor in threshold (k,); one c (n,) and a float floor also serve every row."""
    x = np.asarray(x, dtype=float)
    # a row's value must not depend on its batch: a matrix-vector product rounds a row by its place
    # in it, and ** 2.0 calls pow on one allocation's scalar; _row_sums adds as .sum(axis=-1) does
    value = _row_sums(c * x)
    drift = _row_sums(x) - total_fund
    penalty = config.eq_factor * (drift * drift)
    if config.enforce_threshold:
        shortfall = np.maximum(0.0, threshold - value)
        penalty = penalty + INEQ_FACTOR * (shortfall * shortfall)
    return value - penalty


def penalized_objective_bound(lp: DeterministicLP, config: IcaConfig) -> float:
    """Upper bound on |penalized objective| over the box at any of lp's levels; inf when it overflows."""
    with np.errstate(over="ignore"):
        value = _row_sums(np.abs(lp.coefficients) * lp.upper_bounds)
        drift = max(lp.total_fund, float(lp.upper_bounds.sum()) - lp.total_fund)
        bound = value + config.eq_factor * drift * drift
        if config.enforce_threshold:
            shortfall = np.abs(lp.threshold) + value
            bound = bound + INEQ_FACTOR * shortfall * shortfall
    return float(np.max(bound, initial=0.0))  # 0 at no level


def repair(x, m0: float, upper) -> np.ndarray:
    """Project one allocation (n,) or each row of a batch (k, n) onto
    {sum(x) = m0, 0 <= x <= upper}, a set the caller's instance keeps
    nonempty: it guarantees sum(upper) >= m0.

    Clamps to the box, then settles the budget: a deficit is spread in proportion
    to the remaining headroom (which cannot overshoot any bound), a surplus is
    removed in proportion to current mass.  Repeats until the residual is under
    1e-12 of the budget, so reapplying the repair returns its input bitwise.  A
    row stops on its own residual, so its result does not depend on its batch.
    """
    upper = np.asarray(upper, dtype=float)
    x = np.clip(np.asarray(x, dtype=float), 0.0, upper)
    rows = x.reshape(-1, upper.size)
    tol = 1e-12 * max(1.0, abs(m0))
    for _ in range(100):
        mass = rows.sum(axis=-1)
        residual = m0 - mass
        headroom = upper - rows
        total_headroom = headroom.sum(axis=-1)
        deficit = residual > 0
        # a row is settled within tol, or stuck on a deficit with no headroom left
        unsettled = ~(np.abs(residual) <= tol) & ~(deficit & (total_headroom <= 0.0))
        if not unsettled.any():
            break
        up, down = unsettled & deficit, unsettled & ~deficit
        rows[up] += residual[up, None] * (headroom[up] / total_headroom[up, None])
        rows[down] *= (m0 / mass[down])[:, None]
        rows[unsettled] = np.clip(rows[unsettled], 0.0, upper)
    return x
