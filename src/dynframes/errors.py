"""Exception types shared across the package."""

__all__ = [
    "DynFramesError",
    "DomainError",
    "DimensionMismatch",
    "NonHermitian",
    "NotAFrame",
    "NotInvertible",
    "DiscreteNotFrame",
    "NoConvergence",
]


class DynFramesError(Exception):
    """Base class for all package errors."""


class DomainError(DynFramesError):
    """An input lies outside the mathematical domain of the operation."""


class DimensionMismatch(DynFramesError):
    """Operands whose dimensions must agree do not."""


class NonHermitian(DynFramesError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotAFrame(DynFramesError):
    """The analyzed system has no positive lower frame bound."""


class NotInvertible(DynFramesError):
    """The operator has an eigenvalue at (or numerically at) zero."""


class DiscreteNotFrame(DynFramesError):
    """The sampled time set fails to give a discrete frame."""


class NoConvergence(DynFramesError):
    """An iterative search exhausted its budget without meeting its target."""
