"""Exception and warning types, and the scalar checks that raise ParamError."""

import math
import numbers


class ParamError(ValueError):
    """An argument violates a documented precondition."""


def _real(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or math.isnan(value):
        raise ParamError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _integer(value, name: str, low: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParamError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ParamError(f"{name} must be >= {low}, got {value}")
    return int(value)


class DimensionError(ValueError):
    """Array shapes are incompatible with the operation."""


class DomainError(ValueError):
    """A numeric argument lies outside the mathematical domain."""


class ParseError(ValueError):
    """A CSV cell could not be parsed as a finite number."""

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class SplitError(ValueError):
    """A requested data split would be empty."""


class FactorizationError(ValueError):
    """A grid factorization triple is inconsistent with the point count."""


class SingularError(ValueError):
    """A covariance matrix is numerically singular even after ridging."""


class ProvenanceError(RuntimeError):
    """Calibration data overlaps the data a score function was fitted on."""


class MethodError(TypeError):
    """The operation is not defined for this score-function kind."""


class NotFittedError(RuntimeError):
    """A model was used before fitting."""


class SinkhornNotConverged(UserWarning):
    """Sinkhorn hit its iteration budget with the marginal error above tolerance.

    The returned potentials are the best iterate; conformal calibration built on
    top of them remains valid regardless of map quality.
    """
