"""Exception types shared across the package."""

from __future__ import annotations


class GeomindError(Exception):
    """Base class for all package-specific failures."""


class ChartDomainError(GeomindError, ValueError):
    """A point lies outside the valid coordinate chart (e.g. a sphere pole)."""


class SingularMetricError(GeomindError, ValueError):
    """The metric tensor is not invertible at the requested point."""


class ChartExitError(GeomindError, RuntimeError):
    """An integration step left the chart domain."""


class NoGeodesicError(GeomindError, RuntimeError):
    """The boundary-value solver stopped without converging; reason says why."""

    def __init__(self, message: str, miss: float = float("nan"), iterations: int = 0,
                 *, reason: str):
        super().__init__(message)
        self.miss = miss
        self.iterations = iterations
        self.reason = reason


class FieldFormatError(GeomindError, ValueError):
    """A token-field file is malformed or violates an invariant."""


class ConfigError(GeomindError, ValueError):
    """A run configuration is malformed or violates an invariant."""
