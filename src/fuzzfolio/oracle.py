"""Exact ground truth for the deterministic LP.

The solver returns only the optimum; whether it clears the return floor,
whose left side is the objective, is decided by the CLI's report row.  Its
referee, a brute-force lattice scan, lives in tests/referees.py.

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

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import DeterministicLP

__all__ = ["ExactSolution", "solve_exact"]


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
