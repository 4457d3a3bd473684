"""Shared exception types."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation
    (e.g. a spectrum outside the required cone, or a field with the
    wrong sign)."""


class DegenerateEigenvaluesError(ValueError):
    """Eigenvalues too close for a formula with a removable singularity."""


class SolveFailure(RuntimeError):
    """A solve, or one of its helpers, failed with the named status:
    stalled, cone_breach or domain_error.  A refinement level whose weight
    is undefined carries domain_error and the weight's exponent."""

    def __init__(self, status: str, message: str, exponent: float | None = None):
        super().__init__(message)
        self.status = status
        self.exponent = exponent
