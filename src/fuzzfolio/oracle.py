"""Exact ground truth for the deterministic LP, plus a brute-force referee.

The feasible set is a box sliced by one budget hyperplane and the
objective is linear, so a greedy fill by descending coefficient is
provably optimal: any feasible point can be improved by moving mass from
a lower-coefficient asset to spare capacity of a higher one.  At most one
coordinate ends partially filled.  No general simplex is needed, and a
small trusted base beats one for refereeing the metaheuristic.  The
caller's instance guarantees that the bounds absorb the budget: sum(U) >= M0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationLimitError, ValidationError
from .model import DeterministicLP

__all__ = ["ExactSolution", "solve_exact", "brute_force"]

OPTIMAL = "optimal"
THRESHOLD_INFEASIBLE = "threshold_infeasible"

_NODE_BUDGET = 100_000_000


@dataclass(frozen=True)
class ExactSolution:
    x: np.ndarray
    objective: float
    threshold_satisfied: bool
    status: str


def solve_exact(lp: DeterministicLP) -> ExactSolution:
    """Maximize c . x over the budget slice of the box by greedy fill.

    Assets are filled to their bounds in order of descending coefficient
    (ties broken by ascending index), with the remainder going to the
    next asset; the caller's instance guarantees sum(U) >= M0.  The
    threshold can never be an obstacle to solving because its left side
    equals the objective, so a shortfall only flips the status to
    ``threshold_infeasible``.  Raises ValidationError when the optimal
    objective overflows.
    """
    c = lp.coefficients
    # a -inf fund left clips to 0
    with np.errstate(over="ignore"):
        order = np.argsort(-c, kind="stable")
        caps = lp.upper_bounds[order]
        # the fund left before each asset, subtracted left to right
        left = np.subtract.accumulate(np.concatenate(([lp.total_fund], caps[:-1])))
        x = np.zeros(lp.n)
        x[order] = np.clip(left, 0.0, caps)
        obj = float(c @ x)
    if not math.isfinite(obj):
        raise ValidationError(
            f"the optimal objective overflows at lambda={lp.levels.lam}, eta={lp.levels.eta}; rescale the instance"
        )
    ok = obj >= lp.threshold
    return ExactSolution(x, obj, ok, OPTIMAL if ok else THRESHOLD_INFEASIBLE)


def brute_force(lp: DeterministicLP, grid_step: float) -> ExactSolution:
    """Enumerate every lattice allocation with the given step and pick the best.

    Requires grid_step to divide the budget and every upper bound, in
    which case the greedy optimum lies on the lattice (its single
    partially-filled coordinate is a multiple of the step too) and the
    two solvers must agree.  Independent verification only; aborts past
    a 1e8 node budget.
    """
    if lp.n > 6:
        raise ValueError(f"brute force is limited to 6 assets, got {lp.n}")
    if grid_step <= 0:
        raise ValueError(f"grid step must be positive, got {grid_step}")
    budget_units = _as_units(lp.total_fund, grid_step, "total_fund")
    cap_units = [_as_units(float(b), grid_step, f"upper bound {j}") for j, b in enumerate(lp.upper_bounds)]
    # a-priori explosion guard: bound the prefix tree before walking it
    estimate = 1
    for cap in cap_units[:-1]:
        estimate *= min(cap, budget_units) + 1
        if estimate > _NODE_BUDGET:
            raise EnumerationLimitError(
                f"enumeration would exceed {_NODE_BUDGET} nodes for step {grid_step}"
            )

    c = lp.coefficients
    n = lp.n
    suffix_cap = np.concatenate([np.cumsum(cap_units[::-1])[::-1], [0]])
    best_units: list[int] | None = None
    best_obj = -np.inf
    nodes = 0
    stack = [(0, budget_units, [])]
    while stack:
        j, left, prefix = stack.pop()
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise EnumerationLimitError(f"enumeration exceeded {_NODE_BUDGET} nodes")
        if j == n - 1:
            # last coordinate is forced by the budget
            if 0 <= left <= cap_units[j]:
                units = prefix + [left]
                obj = grid_step * float(sum(c[i] * k for i, k in enumerate(units)))
                if obj > best_obj:
                    best_obj = obj
                    best_units = units
            continue
        # descend in reverse so lexicographically smaller prefixes are tried first
        hi = min(cap_units[j], left)
        lo = max(0, left - int(suffix_cap[j + 1]))
        for k in range(hi, lo - 1, -1):
            stack.append((j + 1, left - k, prefix + [k]))

    assert best_units is not None  # sum(cap) >= budget guarantees a lattice point
    x = grid_step * np.array(best_units, dtype=float)
    ok = best_obj >= lp.threshold
    return ExactSolution(x, best_obj, ok, OPTIMAL if ok else THRESHOLD_INFEASIBLE)


def _as_units(value: float, step: float, what: str) -> int:
    units = round(value / step)
    if abs(units * step - value) > 1e-9 * max(1.0, abs(value)):
        raise ValueError(f"grid step {step} does not divide {what} = {value}")
    return units
