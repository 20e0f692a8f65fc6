"""Exterior penalty transformation and a deterministic budget repair.

Box bounds are not penalized; the optimizer clamps positions instead.
The return-threshold constraint can be genuinely unsatisfiable at high
confidence levels, so by default it is reported post hoc rather than
penalized; the ``IcaConfig`` field ``enforce_threshold`` restores the
fully penalized form.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .model import DeterministicLP

if TYPE_CHECKING:  # for annotations only: ica imports this module at load time
    from .ica import IcaConfig

__all__ = ["penalized_objective_batch", "penalized_objective_bound", "repair"]

# factor of the quadratic return-floor charge under enforce_threshold
INEQ_FACTOR = 0.5


def penalized_objective_batch(lp: DeterministicLP, x: np.ndarray, config: IcaConfig) -> np.ndarray:
    """c . x minus the penalty charges, for one allocation (n,) or a batch (k, n); a batch
    may carry one coefficient row (k, n) and one threshold (k,) per allocation."""
    x = np.asarray(x, dtype=float)
    # a row's value must not depend on its batch: a matrix-vector product rounds a row by its place
    # in it, and ** 2.0 calls pow on one allocation's scalar; _row_sums adds as .sum(axis=-1) does
    value = _row_sums(x * lp.coefficients)
    drift = _row_sums(x) - lp.total_fund
    penalty = config.eq_factor * (drift * drift)
    if config.enforce_threshold:
        shortfall = np.maximum(0.0, lp.threshold - value)
        penalty = penalty + INEQ_FACTOR * (shortfall * shortfall)
    return value - penalty


def _row_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1) bit for bit, a column at a time, without numpy's inner loop per row (most of the sum at
    a few assets), in numpy's pairwise order: below 8 terms in turn; to 128 in eight running sums, combined
    pairwise, then the rest in turn; above 128, two parts split at n // 2 rounded down to a multiple of 8.
    The + 0.0 is numpy's initial value: it makes an all -0.0 sum +0.0 and changes no other sum."""
    n = a.shape[-1]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _row_sums(a[..., :half]) + _row_sums(a[..., half:])
    if n < 8:
        total, done = a[..., 0] + 0.0, 1
    else:
        done, r = n - n % 8, a[..., :8] + 0.0
        for i in range(8, done, 8):
            r += a[..., i:i + 8]
        total = (r[..., 0] + r[..., 1]) + (r[..., 2] + r[..., 3])
        total = total + ((r[..., 4] + r[..., 5]) + (r[..., 6] + r[..., 7]))
    for j in range(done, n):
        total = total + a[..., j]  # a new array: numpy adds in place to a small one more slowly
    return total


def penalized_objective_bound(lp: DeterministicLP, config: IcaConfig) -> float:
    """Upper bound on |penalized objective| over the box at any of lp's levels; inf when it overflows."""
    with np.errstate(over="ignore"):
        value = np.abs(lp.coefficients) @ lp.upper_bounds
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
