"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An instance, config, or input file violates a structural invariant.

    ``field`` names the offending config field, when there is one.
    """

    def __init__(self, message: str = "", field: str | None = None):
        super().__init__(message)
        self.field = field


class BudgetInfeasibleError(ValidationError):
    """The upper bounds cannot absorb the total fund (sum(U) < M0)."""
