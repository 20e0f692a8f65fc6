"""LR fuzzy numbers, fuzzy random returns, and necessity measures.

An LR fuzzy number has a flat peak interval [a0, a1] and two linear
shoulders: membership rises as 1 - (a0 - x) / beta on the left and falls
as 1 - (x - a1) / gamma on the right.  Linear shoulders are the form for
which the model's reformulation is exact.  A fuzzy random return shifts
the peak interval by t * r2 for a normal draw t, keeping the spreads
fixed, so every observation is again an LR fuzzy number.

Degrees of necessity are computed two ways: a closed form for scalar
thresholds (used by the model reformulation) and a direct grid evaluation
of the underlying inf/max definition (used only as a slow verification
oracle for the closed form).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "LRFuzzyNumber",
    "FuzzyRandomReturn",
    "RandomFactor",
    "membership",
    "observe",
    "weighted_sum",
    "normal_quantile",
    "necessity_geq_scalar",
    "necessity_geq_fuzzy",
]

_SQRT2 = math.sqrt(2.0)


def _require_finite(record, fields: tuple[str, ...]) -> None:
    # NaN slips through every ordering check below (NaN < 0 is false)
    for name in fields:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ValueError(f"field {name!r} must be finite, got {value}")


@dataclass(frozen=True, slots=True)
class LRFuzzyNumber:
    """Fuzzy quantity with peak [a0, a1] and left/right spreads beta, gamma."""

    a0: float
    a1: float
    beta: float
    gamma: float

    def __post_init__(self):
        _require_finite(self, ("a0", "a1", "beta", "gamma"))
        if not self.a0 <= self.a1:
            raise ValueError(f"peak interval requires a0 <= a1, got ({self.a0}, {self.a1})")
        if self.beta < 0 or self.gamma < 0:
            raise ValueError(f"spreads must be nonnegative, got beta={self.beta}, gamma={self.gamma}")

    @property
    def support(self) -> tuple[float, float]:
        return (self.a0 - self.beta, self.a1 + self.gamma)


@dataclass(frozen=True, slots=True)
class FuzzyRandomReturn:
    """Per-asset return whose observation at a draw t is an LR fuzzy number.

    The peaks (r0, r1) shift by t * r2; the spreads do not depend on t.
    """

    r0: float
    r1: float
    r2: float
    beta: float
    gamma: float

    def __post_init__(self):
        _require_finite(self, ("r0", "r1", "r2", "beta", "gamma"))
        if not self.r0 <= self.r1:
            raise ValueError(f"base peaks require r0 <= r1, got ({self.r0}, {self.r1})")
        if self.r2 < 0:
            raise ValueError(f"random sensitivity must be nonnegative, got {self.r2}")
        if self.beta < 0 or self.gamma < 0:
            raise ValueError(f"spreads must be nonnegative, got beta={self.beta}, gamma={self.gamma}")


@dataclass(frozen=True)
class RandomFactor:
    """Normal random factor driving the peak shifts."""

    mean: float = 0.0
    std_dev: float = 1.0

    def __post_init__(self):
        _require_finite(self, ("mean", "std_dev"))
        if not self.std_dev > 0:
            raise ValueError(f"std_dev must be positive, got {self.std_dev}")


def membership(a: LRFuzzyNumber, x):
    """Membership degree of x in a.  Accepts scalars or numpy arrays.

    Zero spreads degenerate the corresponding shoulder to a step that is
    closed at the peak, so the function stays total on the reals.
    """
    arr = np.asarray(x, dtype=float)
    deg = np.where((arr >= a.a0) & (arr <= a.a1), 1.0, 0.0)
    # the clips keep each shoulder's ratio in [0, 1]; np.where discards
    # the values off the shoulder
    if a.beta > 0:
        m = (arr >= a.a0 - a.beta) & (arr < a.a0)
        deg = np.where(m, 1.0 - np.clip((a.a0 - arr) / a.beta, 0.0, 1.0), deg)
    if a.gamma > 0:
        m = (arr > a.a1) & (arr <= a.a1 + a.gamma)
        deg = np.where(m, 1.0 - np.clip((arr - a.a1) / a.gamma, 0.0, 1.0), deg)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(deg)
    return deg


def observe(frv: FuzzyRandomReturn, t: float) -> LRFuzzyNumber:
    """Realize the fuzzy random return at draw t."""
    shift = t * frv.r2
    return LRFuzzyNumber(frv.r0 + shift, frv.r1 + shift, frv.beta, frv.gamma)


def weighted_sum(observations: Sequence[LRFuzzyNumber], x: Sequence[float]) -> LRFuzzyNumber:
    """Nonnegative linear combination of LR fuzzy numbers.

    Peaks and spreads combine componentwise, which is exact because all
    shoulders are linear.
    """
    if len(observations) != len(x):
        raise ValueError(f"length mismatch: {len(observations)} observations vs {len(x)} weights")
    if any(w < 0 for w in x):
        raise ValueError("weights must be nonnegative")
    a0 = a1 = beta = gamma = 0.0
    for o, w in zip(observations, x):
        a0 += o.a0 * w
        a1 += o.a1 * w
        beta += o.beta * w
        gamma += o.gamma * w
    return LRFuzzyNumber(a0, a1, beta, gamma)


def normal_quantile(p: float | np.ndarray, factor: RandomFactor = RandomFactor()) -> float | np.ndarray:
    """Generalized inverse of the factor's normal CDF, at a float p or at each entry of an array.

    Bisection from [-40, 40] against the CDF 0.5 * erfc(-t / sqrt 2) down to a
    width of 1e-13.  After k halvings every bound is a multiple of 80 / 2**k
    that a float holds exactly, so all entries share the width and lo + width
    is exactly the midpoint 0.5 * (lo + hi).  A midpoint farther than
    1e-13 * (1 + |q| + p / pdf(q)) from q = NormalDist().inv_cdf(p) takes the
    side mid < q without erfc: over that distance the CDF moves by more than
    its float error and q's, so each entry is bitwise the scalar loop's.  erfc
    decides every midpoint where that distance is not finite or p <= 1e-300.
    """
    flat = np.asarray(p, dtype=float).ravel()
    bad = np.flatnonzero(~((flat > 0.0) & (flat < 1.0)))
    if bad.size:
        where = "" if np.ndim(p) == 0 else f" at index {bad[0]}"
        raise ValueError(f"probability must lie strictly in (0, 1), got {flat[bad[0]]}{where}")
    q = np.array(list(map(statistics.NormalDist().inv_cdf, flat.tolist())))
    with np.errstate(over="ignore"):
        delta = 1e-13 * (1.0 + np.abs(q) + flat * math.sqrt(math.tau) * np.exp(0.5 * q * q))
    delta[~np.isfinite(delta) | (flat <= 1e-300)] = np.inf
    lo, width = np.full_like(flat, -40.0), 80.0
    while width > 1e-13:
        width *= 0.5
        mid = lo + width
        below = mid < q
        near = np.flatnonzero(np.abs(mid - q) <= delta)
        if near.size:
            below[near] = 0.5 * np.array(list(map(math.erfc, (-mid[near] / _SQRT2).tolist()))) < flat[near]
        lo = np.where(below, mid, lo)
    t = factor.mean + factor.std_dev * (lo + 0.5 * width).reshape(np.shape(p))
    return float(t) if t.ndim == 0 else t


def necessity_geq_scalar(a: LRFuzzyNumber, f: float) -> float:
    """Degree to which a is necessarily at least the scalar f.

    Closed form for LR numbers: certain (1) once f clears the left edge
    of the support, impossible (0) once f exceeds the left peak, and
    (a0 - f) / beta on the left shoulder in between.  Equivalently the
    degree is at least eta iff f <= a0 - beta * eta.
    """
    if f <= a.a0 - a.beta:
        return 1.0
    if f > a.a0:
        return 0.0
    # one minus the membership of f, not the ratio itself: the two can
    # differ in the last bit
    return 1.0 - (1.0 - (a.a0 - f) / a.beta)


def necessity_geq_fuzzy(a: LRFuzzyNumber, b: LRFuzzyNumber, grid: int = 1000) -> float:
    """Degree to which a is necessarily at least b, by direct grid search.

    Evaluates inf over y of max(1 - mu_a(y), sup_{v <= y} mu_b(v)): the
    certainty that a's value clears everything b can reach from below.
    With b collapsed to a crisp point this reduces to the scalar closed
    form.  The result is accurate to one grid step of membership
    variation; this exists as a verification oracle, not a fast path.
    """
    if grid < 100:
        raise ValueError(f"grid must provide at least 100 points per support, got {grid}")
    a_lo, a_hi = a.support
    b_lo, b_hi = b.support
    pts = np.unique(np.concatenate([
        np.linspace(a_lo, a_hi, grid),
        np.linspace(b_lo, b_hi, grid),
        # shoulder breakpoints, so kinks and zero-width supports are hit exactly
        np.array([a_lo, a.a0, a.a1, a_hi, b_lo, b.a0, b.a1, b_hi]),
    ]))
    mu_a = np.atleast_1d(membership(a, pts))
    reach_b = np.maximum.accumulate(np.atleast_1d(membership(b, pts)))
    return float(np.maximum(1.0 - mu_a, reach_b).min())
