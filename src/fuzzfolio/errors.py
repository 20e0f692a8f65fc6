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


def require_finite(value, field: str, index: int | None = None) -> None:
    """Raise a ValidationError naming field unless value is a number finite as a float (NaN slips
    through every ordering check); the message calls it ``field 'r0'``, or ``upper_bounds[3]``."""
    # a float passes without is_number's ABC check, which costs more than the rest of a record
    number = isinstance(value, float) or is_number(value)
    if not (number and is_finite(value)):
        what = f"field {field!r}" if index is None else f"{field}[{index}]"
        rule = f"be finite, got {shown(value)}" if number else f"be a number, got {shown(value, repr)}"
        raise ValidationError(f"{what} must {rule}", field=field)


def shown(value, write=str) -> str:
    """write(value) for a message, but an int too long to write as text by its sign and bit length."""
    try:
        return write(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits(), in value or in an int it holds
        return (f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits" if isinstance(value, int)
                else f"a {type(value).__name__} holding an int too long to write")
