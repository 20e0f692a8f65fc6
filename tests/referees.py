"""Scalar referees for the package's array paths."""

import math

from fuzzfolio.fuzzy import RandomFactor


def scalar_normal_quantile(p: float, factor: RandomFactor = RandomFactor()) -> float:
    """The factor's normal quantile at one p, one erfc call per halving.

    Bisection from [-40, 40] against the erfc-based CDF down to a width of
    1e-13: normal_quantile must return these bits at every entry."""
    lo, hi = -40.0, 40.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < p:
            lo = mid
        else:
            hi = mid
    return factor.mean + factor.std_dev * (0.5 * (lo + hi))
