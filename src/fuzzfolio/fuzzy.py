"""LR fuzzy numbers, fuzzy random returns, and necessity measures.

An LR fuzzy number has a flat peak interval [a0, a1] and two shoulders
shaped by reference functions: membership rises as L((a0 - x) / beta) on
the left and falls as R((x - a1) / gamma) on the right.  A fuzzy random
return shifts the peak interval by t * r2 for a normal draw t, keeping
the spreads fixed, so every observation is again an LR fuzzy number.

Degrees of necessity are computed two ways: a closed form for scalar
thresholds (used by the model reformulation) and a direct grid evaluation
of the underlying inf/max definition (used only as a slow verification
oracle for the closed form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ReferenceFunction",
    "LINEAR",
    "register_reference",
    "LRFuzzyNumber",
    "FuzzyRandomReturn",
    "RandomFactor",
    "STANDARD_NORMAL",
    "membership",
    "alpha_cut",
    "observe",
    "weighted_sum",
    "normal_quantile",
    "ref_pseudo_inverse",
    "necessity_geq_scalar",
    "necessity_geq_fuzzy",
]

_SQRT2 = math.sqrt(2.0)

# kind -> (evaluate, pseudo_inverse or None for bisection fallback);
# evaluate must work elementwise on floats and numpy arrays alike
_REFERENCE_KINDS: dict[str, tuple[Callable, Callable | None]] = {
    "linear": (lambda t: 1.0 - t, lambda alpha: 1.0 - alpha),
}


def register_reference(kind: str, evaluate: Callable, pseudo_inverse: Callable | None = None) -> None:
    """Register a new reference-function kind.

    ``evaluate`` must be a strictly decreasing continuous map of [0, 1]
    onto [0, 1] with evaluate(0) = 1 and evaluate(1) = 0, and must accept
    numpy arrays elementwise.  Without an explicit ``pseudo_inverse`` the
    generalized inverse is computed by bisection.
    """
    e0 = float(evaluate(0.0))
    e1 = float(evaluate(1.0))
    if abs(e0 - 1.0) > 1e-12 or abs(e1) > 1e-12:
        raise ValueError(f"reference {kind!r} must satisfy evaluate(0)=1, evaluate(1)=0")
    _REFERENCE_KINDS[kind] = (evaluate, pseudo_inverse)


@dataclass(frozen=True)
class ReferenceFunction:
    """A shoulder shape for LR fuzzy numbers, identified by kind."""

    kind: str = "linear"

    def __post_init__(self):
        if self.kind not in _REFERENCE_KINDS:
            raise ValueError(f"unknown reference kind {self.kind!r}")

    def evaluate(self, t):
        return _REFERENCE_KINDS[self.kind][0](t)

    def pseudo_inverse(self, alpha: float) -> float:
        """Largest t in [0, 1] with evaluate(t) >= alpha."""
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        inv = _REFERENCE_KINDS[self.kind][1]
        if inv is not None:
            return float(inv(alpha))
        if alpha <= 0.0:
            return 1.0
        if float(self.evaluate(1.0)) >= alpha:
            return 1.0
        # invariant: evaluate(lo) >= alpha > evaluate(hi)
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if float(self.evaluate(mid)) >= alpha:
                lo = mid
            else:
                hi = mid
        return lo


LINEAR = ReferenceFunction("linear")


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
    left_ref: ReferenceFunction = LINEAR
    right_ref: ReferenceFunction = LINEAR

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

    def cdf(self, t: float) -> float:
        z = (t - self.mean) / self.std_dev
        return 0.5 * math.erfc(-z / _SQRT2)


STANDARD_NORMAL = RandomFactor(0.0, 1.0)


def membership(a: LRFuzzyNumber, x):
    """Membership degree of x in a.  Accepts scalars or numpy arrays.

    Zero spreads degenerate the corresponding shoulder to a step that is
    closed at the peak, so the function stays total on the reals.
    """
    arr = np.asarray(x, dtype=float)
    deg = np.where((arr >= a.a0) & (arr <= a.a1), 1.0, 0.0)
    if a.beta > 0:
        m = (arr >= a.a0 - a.beta) & (arr < a.a0)
        if np.any(m):
            deg = np.where(m, _eval_masked(a.left_ref, (a.a0 - arr) / a.beta, m), deg)
    if a.gamma > 0:
        m = (arr > a.a1) & (arr <= a.a1 + a.gamma)
        if np.any(m):
            deg = np.where(m, _eval_masked(a.right_ref, (arr - a.a1) / a.gamma, m), deg)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(deg)
    return deg


def _eval_masked(ref: ReferenceFunction, ratio, mask):
    # keep the reference function's argument inside its [0, 1] domain; the
    # off-mask entries are discarded by np.where
    vals = np.zeros_like(ratio)
    vals[mask] = ref.evaluate(np.clip(ratio[mask], 0.0, 1.0))
    return vals


def alpha_cut(a: LRFuzzyNumber, alpha: float) -> tuple[float, float]:
    """Closed interval of points with membership at least alpha, 0 < alpha <= 1."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    lo = a.a0 - a.beta * a.left_ref.pseudo_inverse(alpha)
    hi = a.a1 + a.gamma * a.right_ref.pseudo_inverse(alpha)
    return (lo, hi)


def observe(frv: FuzzyRandomReturn, t: float) -> LRFuzzyNumber:
    """Realize the fuzzy random return at draw t."""
    shift = t * frv.r2
    return LRFuzzyNumber(frv.r0 + shift, frv.r1 + shift, frv.beta, frv.gamma)


def weighted_sum(observations: Sequence[LRFuzzyNumber], x: Sequence[float]) -> LRFuzzyNumber:
    """Nonnegative linear combination of LR fuzzy numbers.

    Peaks and spreads combine componentwise, which is exact only when all
    terms share the same reference functions.
    """
    if len(observations) != len(x):
        raise ValueError(f"length mismatch: {len(observations)} observations vs {len(x)} weights")
    if any(w < 0 for w in x):
        raise ValueError("weights must be nonnegative")
    if observations:
        left = observations[0].left_ref
        right = observations[0].right_ref
        if any(o.left_ref != left or o.right_ref != right for o in observations[1:]):
            raise ValueError("componentwise combination requires identical reference functions")
    else:
        left = right = LINEAR
    a0 = a1 = beta = gamma = 0.0
    for o, w in zip(observations, x):
        a0 += o.a0 * w
        a1 += o.a1 * w
        beta += o.beta * w
        gamma += o.gamma * w
    return LRFuzzyNumber(a0, a1, beta, gamma, left, right)


def normal_quantile(p: float, factor: RandomFactor = STANDARD_NORMAL) -> float:
    """Generalized inverse of the factor's normal CDF.

    Computed by bisection against the erfc-based CDF, so the result t
    satisfies |CDF(t) - p| well below 1e-10.  This is deliberately the
    slow, trustworthy route: the value feeds the deterministic
    reformulation and every oracle built on it.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie strictly in (0, 1), got {p}")
    lo, hi = -40.0, 40.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / _SQRT2) < p:
            lo = mid
        else:
            hi = mid
    z = 0.5 * (lo + hi)
    return factor.mean + factor.std_dev * z


def ref_pseudo_inverse(rf: ReferenceFunction, alpha: float) -> float:
    """sup{t in [0, 1] | rf.evaluate(t) >= alpha}; 1 - alpha for the linear kind."""
    return rf.pseudo_inverse(alpha)


def necessity_geq_scalar(a: LRFuzzyNumber, f: float) -> float:
    """Degree to which a is necessarily at least the scalar f.

    Closed form for LR numbers: certain (1) once f clears the left edge
    of the support, impossible (0) once f exceeds the left peak, and
    1 - L((a0 - f) / beta) on the left shoulder in between.  Equivalently
    the degree is at least eta iff f <= a0 - beta * L*(1 - eta).
    """
    if f <= a.a0 - a.beta:
        return 1.0
    if f > a.a0:
        return 0.0
    return 1.0 - float(a.left_ref.evaluate((a.a0 - f) / a.beta))


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
