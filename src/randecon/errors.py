"""Exception types shared across the package."""


class RandeconError(Exception):
    """Base class for all package errors."""


class DomainError(RandeconError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NonFiniteError(RandeconError, ArithmeticError):
    """A computation produced (or was fed) a non-finite value."""


class NoConvergenceError(RandeconError, RuntimeError):
    """An iterative solver exhausted its budget without meeting tolerance;
    ``evaluations`` counts the residual evaluations it spent, where known."""

    def __init__(self, message, evaluations=0):
        super().__init__(message)
        self.evaluations = evaluations


class NoRootError(RandeconError, RuntimeError):
    """A root-finder found no root in the admissible interval."""
