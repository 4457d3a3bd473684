"""Shared exception types."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation
    (e.g. a spectrum outside the required cone, or a field with the
    wrong sign)."""


class DegenerateEigenvaluesError(ValueError):
    """Eigenvalues too close for a formula with a removable singularity."""


class ConeBreachError(RuntimeError):
    """A field left the admissible cone where the operator is elliptic."""
