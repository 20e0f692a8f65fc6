"""Exception types shared across the package, and the number tests of its checks."""

import numbers
import sys


class ValidationError(ValueError):
    """An instance, config, or input file violates a structural invariant.

    ``field`` names the offending config field, when there is one.
    """

    def __init__(self, message: str = "", field: str | None = None):
        super().__init__(message)
        self.field = field


class BudgetInfeasibleError(ValidationError):
    """The upper bounds cannot absorb the total fund (sum(U) < M0)."""


def is_number(value, kind=numbers.Real) -> bool:
    """Whether value is of the ``numbers`` ABC kind, numpy scalars included; a bool is no number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """Whether a number is finite as a float: NaN, the infinities and an int past the float range are not."""
    return abs(value) <= sys.float_info.max
