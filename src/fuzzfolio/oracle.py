"""Exact ground truth for the deterministic LP, plus a brute-force referee.

Both return only the optimum; whether it clears the return floor, whose
left side is the objective, is decided by the CLI's report row.

The feasible set is a box sliced by one budget hyperplane and the
objective is linear, so a greedy fill by descending coefficient is
provably optimal: any feasible point can be improved by moving mass from
a lower-coefficient asset to spare capacity of a higher one.  At most one
coordinate ends partially filled.  No general simplex is needed, and a
small trusted base beats one for refereeing the metaheuristic.  The
caller's instance guarantees that the bounds absorb the budget: sum(U) >= M0.
At L levels the fill is one row-wise sort, running subtraction and
scatter; one level is the L = 1 case of the same fill.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationLimitError, ValidationError
from .model import DeterministicLP

__all__ = ["ExactSolution", "solve_exact", "brute_force"]

_NODE_BUDGET = 100_000_000


@dataclass(frozen=True)
class ExactSolution:
    x: np.ndarray
    objective: float | np.ndarray


def solve_exact(lp: DeterministicLP) -> ExactSolution:
    """Maximize c . x over the budget slice of the box by greedy fill.

    Assets are filled to their bounds in order of descending coefficient
    (ties broken by ascending index), with the remainder going to the
    next asset; the caller's instance guarantees sum(U) >= M0.  The
    threshold plays no part: the optimum clears it iff
    ``objective >= lp.threshold``, which the caller checks.  At L levels,
    x is (L, n) and objective (L,).  Raises ValidationError at the first
    level whose optimal objective overflows.
    """
    one = lp.coefficients.ndim == 1
    c = lp.coefficients.reshape(-1, lp.n)
    # a -inf fund left clips to 0
    with np.errstate(over="ignore"):
        order = np.argsort(-c, axis=-1, kind="stable")
        caps = lp.upper_bounds[order]
        # the fund left before each asset, subtracted left to right
        left = np.concatenate((np.full((len(c), 1), lp.total_fund), caps[:, :-1]), axis=-1)
        np.subtract.accumulate(left, axis=-1, out=left)
        np.clip(left, 0.0, caps, out=left)
        x = caps  # the spent caps buffer: one (L, n) array fewer at the peak
        np.put_along_axis(x, order, left, axis=-1)
        # (1, n) @ (n, 1) per level: numpy takes the dot kernel of c_i @ x_i, so
        # each objective is rounded as at one level
        obj = (c[:, None, :] @ x[:, :, None])[:, 0, 0]
    if not np.isfinite(obj).all():
        level = lp.levels if one else lp.levels[np.isfinite(obj).argmin()]
        raise ValidationError(
            f"the optimal objective overflows at lambda={level.lam}, eta={level.eta}; rescale the instance")
    return ExactSolution(x[0], float(obj[0])) if one else ExactSolution(x, obj)


def brute_force(lp: DeterministicLP, grid_step: float) -> ExactSolution:
    """Scan every lattice allocation with the given step and pick the best.

    Requires grid_step to divide the budget and every upper bound, in
    which case the greedy optimum lies on the lattice (its single
    partially-filled coordinate is a multiple of the step too) and the
    two solvers must agree.  The first n - 1 coordinates run in
    lexicographic order, the budget forces the last, and the first strict
    best wins.  Independent verification only; refuses a scan of more
    than 1e8 prefixes, and a budget that no lattice allocation spends.
    """
    if lp.n > 6:
        raise ValueError(f"brute force is limited to 6 assets, got {lp.n}")
    if grid_step <= 0:
        raise ValueError(f"grid step must be positive, got {grid_step}")
    budget_units = _as_units(lp.total_fund, grid_step, "total_fund")
    cap_units = [_as_units(float(b), grid_step, f"upper bound {j}") for j, b in enumerate(lp.upper_bounds)]
    prefixes = [range(min(cap, budget_units) + 1) for cap in cap_units[:-1]]
    # a-priori explosion guard: the scan visits exactly this many prefixes
    if math.prod(map(len, prefixes)) > _NODE_BUDGET:
        raise EnumerationLimitError(f"enumeration would exceed {_NODE_BUDGET} nodes for step {grid_step}")

    c = lp.coefficients
    best_units, best_obj = None, -np.inf
    for prefix in itertools.product(*prefixes):
        last = budget_units - sum(prefix)
        if 0 <= last <= cap_units[-1]:
            units = (*prefix, last)
            obj = grid_step * float(sum(c[i] * k for i, k in enumerate(units)))
            if obj > best_obj:
                best_units, best_obj = units, obj
    if best_units is None:
        raise ValueError(f"no allocation on the lattice of step {grid_step} spends total_fund = {lp.total_fund}")
    return ExactSolution(grid_step * np.array(best_units, dtype=float), best_obj)


def _as_units(value: float, step: float, what: str) -> int:
    units = round(value / step)
    if abs(units * step - value) > 1e-9 * max(1.0, abs(value)):
        raise ValueError(f"grid step {step} does not divide {what} = {value}")
    return units
