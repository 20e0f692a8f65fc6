"""LR fuzzy numbers, fuzzy random returns, and necessity measures.

An LR fuzzy number has a flat peak interval [a0, a1] and two linear
shoulders: the grade of x rises as 1 - (a0 - x) / beta on the left and falls
as 1 - (x - a1) / gamma on the right.  Linear shoulders are the form for
which the model's reformulation is exact.  A fuzzy random return shifts
the peak interval by t * r2 for a normal draw t, keeping the spreads
fixed, so every observation is again an LR fuzzy number.

The degree to which an LR number necessarily reaches a scalar threshold
has a closed form, which the model reformulation uses.  Its referee, a
grid evaluation of the underlying inf/max definition, lives in
tests/referees.py.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, is_finite, is_number

__all__ = [
    "LRFuzzyNumber",
    "FuzzyRandomReturn",
    "RandomFactor",
    "observe",
    "weighted_sum",
    "normal_quantile",
    "necessity_geq_scalar",
]

_SQRT2 = math.sqrt(2.0)


def _require_finite(record, fields: tuple[str, ...]) -> None:
    # NaN slips through every ordering check below (NaN < 0 is false); a float passes without
    # is_number's ABC check, which costs more than the rest of a record: a load builds one per asset
    for name in fields:
        value = getattr(record, name)
        if not (isinstance(value, float) or is_number(value)):
            raise ValidationError(f"field {name!r} must be a number, got {value!r}", field=name)
        if not is_finite(value):
            raise ValidationError(f"field {name!r} must be finite, got {value}", field=name)


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

    The first k halvings take mid < q alone while no point of the grid
    -40 + j * 80 / 2**k lies within that distance of q, as every midpoint
    they meet is such a point; they leave lo at the grid point just below q.
    So the loop starts at the finest grid far from every entry's q, once the
    bracket (lo, lo + 80 / 2**k) holds each q with that margin, and else at
    [-40, 40].
    """
    flat = np.asarray(p, dtype=float).ravel()
    inside = (flat > 0.0) & (flat < 1.0)
    if not inside.all():
        bad = np.flatnonzero(~inside)
        where = "" if np.ndim(p) == 0 else f" at index {bad[0]}"
        raise ValueError(f"probability must lie strictly in (0, 1), got {flat[bad[0]]}{where}")
    q = np.array(list(map(statistics.NormalDist().inv_cdf, flat.tolist())))
    with np.errstate(over="ignore"):
        delta = 1e-13 * (1.0 + np.abs(q) + flat * math.sqrt(math.tau) * np.exp(0.5 * q * q))
    delta[~np.isfinite(delta) | (flat <= 1e-300)] = np.inf
    # no point of grid k lies between q - 2 delta and q + 2 delta while the two, counted in units
    # of 80 / 2**52 above -40, agree in their leading k of 52 bits, so k is 52 less the bit length
    # of their XOR; twice delta covers the rounding of this estimate, and the bracket checks it
    ends = np.clip((q + np.multiply.outer((-2.0, 2.0), delta) + 40.0) * (2.0 ** 52 / 80.0), 0.0, 2.0 ** 52)
    bits = np.frexp(np.bitwise_xor(*ends.astype(np.int64)).astype(float))[1].max(initial=0)
    width = math.ldexp(80.0, -min(max(52 - int(bits), 0), 50))
    lo = -40.0 + np.floor((q + 40.0) / width) * width
    if not ((q - lo > delta) & (lo + width - q > delta)).all():
        lo, width = np.full_like(flat, -40.0), 80.0
    while width > 1e-13:
        width *= 0.5
        mid = lo + width
        gap = mid - q  # exactly 0 only at mid == q, and else of the sign of mid - q
        below = gap < 0.0
        near = (np.abs(gap) <= delta).nonzero()[0]
        if near.size:
            below[near] = 0.5 * np.array(list(map(math.erfc, (-mid[near] / _SQRT2).tolist()))) < flat[near]
        lo = np.where(below, mid, lo)
    t = factor.mean + factor.std_dev * (lo + 0.5 * width).reshape(np.shape(p))
    return float(t) if t.ndim == 0 else t


def necessity_geq_scalar(a: LRFuzzyNumber, f: float) -> float:
    """Degree to which a is necessarily at least the scalar f.

    Closed form for LR numbers: certain (1) once f is at most a0 - beta,
    the foot of the left shoulder, impossible (0) once f exceeds a0, and
    (a0 - f) / beta on the left shoulder in between.  Equivalently the
    degree is at least eta iff f <= a0 - beta * eta.
    """
    if f <= a.a0 - a.beta:
        return 1.0
    if f > a.a0:
        return 0.0
    # one minus the shoulder's grade at f, not the ratio itself: the two can
    # differ in the last bit
    return 1.0 - (1.0 - (a.a0 - f) / a.beta)
