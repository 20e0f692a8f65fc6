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
threshold instead of being kept as a row; the CLI's report row checks
the optimal value against it.  A sweep reformulates its L levels at once,
as (L, n) coefficients and (L,) thresholds; one ConfidenceLevels is the
L = 1 case of the same arithmetic, returned without the level axis.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BudgetInfeasibleError, ValidationError, is_number, require_finite, shown
from .fuzzy import FuzzyRandomReturn, RandomFactor, normal_quantile

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

# the largest draw buffer in bytes: necessity_certificate's peak, about six sample-long float arrays, or an ICA
# row block's S rows (ica.refuse sizes those; ica.draw holds G + 1 <= S + 1 more rows beside them)
MAX_DRAW_BYTES = 2 * 2**30


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
        u = tuple(self.upper_bounds)
        for i, b in enumerate(u):
            require_finite(b, "upper_bounds", i)
        require_finite(self.total_fund, "total_fund")
        if len(self.assets) < 1:
            raise ValidationError("at least one asset is required")
        if len(u) != len(self.assets):
            raise ValidationError(f"expected {len(self.assets)} upper bounds, got {len(u)}", field="upper_bounds")
        if not all(b > 0 for b in u):
            raise ValidationError("upper bounds must be finite and positive", field="upper_bounds")
        if not self.total_fund > 0:
            raise ValidationError(f"total fund must be positive, got {self.total_fund!r}", field="total_fund")
        u = tuple(map(float, u))
        object.__setattr__(self, "upper_bounds", u)
        object.__setattr__(self, "total_fund", float(self.total_fund))
        if sum(u) < self.total_fund:
            raise BudgetInfeasibleError(f"upper bounds sum to {sum(u)}, below the total fund {self.total_fund}")


@dataclass(frozen=True)
class ConfidenceLevels:
    """Probability level lambda and necessity level eta, both in (0, 1)."""

    lam: float
    eta: float

    def __post_init__(self):
        # a float passes without is_number's ABC check, which costs ten times as much: a sweep builds thousands
        if not ((isinstance(self.lam, float) or is_number(self.lam)) and 0.0 < self.lam < 1.0):
            raise ValidationError(f"lambda must lie strictly in (0, 1), got {shown(self.lam, repr)}", field="lam")
        if not ((isinstance(self.eta, float) or is_number(self.eta)) and 0.0 < self.eta < 1.0):
            raise ValidationError(f"eta must lie strictly in (0, 1), got {shown(self.eta, repr)}", field="eta")
        # reformulate takes the normal quantile at 1 - lambda, which must stay below 1
        if 1.0 - self.lam == 1.0:
            raise ValidationError(f"lambda {self.lam} is too close to 0: 1 - lambda rounds to 1", field="lam")


@dataclass(frozen=True)
class DeterministicLP:
    """The crisp problem: maximize c . x on the budget slice of a box.
    ``reformulate`` produces it, from an instance whose bounds absorb the fund.
    At L levels, coefficients, threshold and levels are (L, n), (L,) and an
    L-tuple, and ``lp[i]`` is level i's LP; at one level, (n,), a float and one."""

    coefficients: np.ndarray
    total_fund: float
    upper_bounds: np.ndarray
    threshold: float | np.ndarray
    levels: ConfidenceLevels | tuple[ConfidenceLevels, ...]

    @property
    def n(self) -> int:
        """The number of assets: the last axis, at one level or at L."""
        return int(self.coefficients.shape[-1])

    def __getitem__(self, i: int) -> DeterministicLP:
        return DeterministicLP(self.coefficients[i], self.total_fund, self.upper_bounds,
                               float(self.threshold[i]), self.levels[i])


def reformulate(instance: PortfolioInstance, levels: ConfidenceLevels | Sequence[ConfidenceLevels]) -> DeterministicLP:
    """Build the deterministic LP at one confidence level, or at several.

    Pure function: identical inputs produce bitwise-identical coefficient
    vectors, whatever other levels come along.  Raises ValidationError at
    the first level whose coefficient overflows, naming the first such
    asset, or else the target.
    """
    batch = (levels,) if isinstance(levels, ConfidenceLevels) else tuple(levels)
    t_star = normal_quantile(1.0 - np.array([lv.lam for lv in batch]), instance.factor)
    # eta, taken through 1 - eta as the shoulder's inverse gives it: the
    # round trip moves some levels (0.1 among them) one ulp, and the
    # reported coefficients keep that rounding
    l_star = 1.0 - (1.0 - np.array([lv.eta for lv in batch]))
    r0, r2, beta = np.array([(a.r0, a.r2, a.beta) for a in instance.assets], dtype=float).T
    tgt = instance.target
    with np.errstate(over="ignore", invalid="ignore"):
        c = r0 + t_star[:, None] * r2 - l_star[:, None] * beta
        threshold = tgt.r0 + t_star * tgt.r2 - tgt.beta * l_star
    finite = np.isfinite(c).all(axis=1) & np.isfinite(threshold)
    if not finite.all():
        i = finite.argmin()
        bad = np.flatnonzero(~np.isfinite(c[i]))
        where = f"assets[{bad[0]}]: the coefficient" if bad.size else "target: the return threshold"
        raise ValidationError(
            f"{where} overflows at lambda={batch[i].lam}, eta={batch[i].eta}; rescale the instance")
    u = np.array(instance.upper_bounds)
    c.setflags(write=False)
    u.setflags(write=False)
    lp = DeterministicLP(c, instance.total_fund, u, threshold, batch)
    return lp[0] if isinstance(levels, ConfidenceLevels) else lp


def objective(lp: DeterministicLP, x: Sequence[float]) -> float:
    """The crisp objective c . x of a one-level LP; also the left side of the
    threshold check.  A value past the float range is inf, without a warning."""
    x = np.asarray(x, dtype=float)
    if lp.coefficients.ndim != 1 or x.shape != lp.coefficients.shape:
        raise ValidationError(f"expected a one-level LP and an (n,) allocation, got {lp.coefficients.shape} "
                              f"and {x.shape}", field="x")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_row_sums(lp.coefficients * x))


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
    feasible = abs(budget) <= EQ_TOL and thresh >= -INEQ_TOL and float(viol.max()) <= BOX_TOL
    return ResidualReport(budget, thresh, viol, feasible)


@dataclass(frozen=True)
class CertificateReport:
    """Empirical check of the reformulation at one allocation.

    ``probability`` estimates Pr{ necessity(Z(t) >= f) >= eta } over seeded normal draws t, with no
    reuse of the reformulated coefficients: Z(t) has the left peak a0(t) = sum_j w_j (r0_j + t r2_j) and
    the left spread b = sum_j w_j beta_j, so its necessity is 1 for f <= a0 - b, (a0 - f) / b up to a0, 0 above.
    """

    threshold: float
    probability: float
    std_error: float
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
    if not (is_number(n_samples, numbers.Integral) and n_samples >= 1):
        raise ValidationError(f"n_samples must be a positive integer, got {shown(n_samples, repr)}", field="n_samples")
    if n_samples > MAX_DRAW_BYTES // 48:  # t, a0, the shoulder, np.where's two results and masks at once
        raise ValidationError(f"n_samples must be at most {MAX_DRAW_BYTES // 48}, got {shown(n_samples)}",
                              field="n_samples")
    rng = np.random.default_rng(rng)
    lp = reformulate(instance, levels)
    crisp_value = objective(lp, x)
    if not math.isfinite(crisp_value):
        raise ValidationError(f"the crisp value c . x must be finite, got {crisp_value}", field="x")
    f = crisp_value - margin
    weights = [float(w) for w in x]
    if any(w < 0 for w in weights):
        raise ValidationError("weights must be nonnegative", field="x")
    t = rng.normal(instance.factor.mean, instance.factor.std_dev, size=n_samples)
    a0, beta = 0.0, 0.0
    # float overflow gives inf silently, as in the scalar formulas
    with np.errstate(over="ignore", invalid="ignore"):
        for asset, w in zip(instance.assets, weights):
            a0 = a0 + (asset.r0 + t * asset.r2) * w
            beta += asset.beta * w
        if not np.isfinite(a0).all():
            raise ValidationError(f"field 'a0' must be finite, got {a0[~np.isfinite(a0)][0]}")
        # the shoulder is taken only where a0 - beta < f <= a0, so never at beta == 0
        shoulder = 1.0 - (1.0 - (a0 - f) / (beta if beta > 0 else 1.0))
        degree = np.where(f <= a0 - beta, 1.0, np.where(f > a0, 0.0, shoulder))
    hits = int(np.count_nonzero(degree >= levels.eta))
    p = hits / n_samples
    se = math.sqrt(p * (1.0 - p) / n_samples)
    return CertificateReport(threshold=f, probability=p, std_error=se, meets_level=p >= levels.lam,
                             crisp_value=crisp_value, crisp_holds=crisp_value >= f, n_samples=n_samples)
