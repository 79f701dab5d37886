"""Exception hierarchy. ValidationError maps to exit code 1, NumericalError to 2."""

from __future__ import annotations


class PfzError(Exception):
    """Base class for all package errors."""


class ValidationError(PfzError):
    """Bad input: malformed config, out-of-range parameter, point outside domain."""


class DomainError(ValidationError):
    """A query point lies outside the region where the operation is defined."""


class NumericalError(PfzError):
    """A numerical procedure failed to deliver its contract."""


class NoConvergenceError(NumericalError):
    """An iterative solver ran out of iterations.

    Carries the last iterate so callers can diagnose or reseed.
    """

    def __init__(self, message: str, last_iterate: complex | None = None):
        super().__init__(message)
        self.last_iterate = last_iterate


class SingularityError(NumericalError):
    """A Jacobian or matrix became (near-)singular where transversality was required."""


class SpuriousRootError(NumericalError):
    """A solver converged, but the solution fails a required stability condition."""


class ContourDegeneracyError(NumericalError):
    """A zero sits on or too close to an integration contour; jitter the contour.

    Carries the contour whose winding could not be counted.
    """

    def __init__(self, message: str, contour=None):
        super().__init__(message)
        self.contour = contour


class UnresolvedClusterError(NumericalError):
    """Subdivision could not account for a cell's winding by its zeros."""

    def __init__(self, message: str, cell=None):
        super().__init__(message)
        self.cell = cell


class CoverageError(ValidationError):
    """A counting disc is not fully contained in the region the zeros cover."""


class HypothesisViolationError(ValidationError):
    """A conditional audit refused to run because its hypotheses fail."""


class ConvexityError(NumericalError):
    """Logarithmic derivatives at a multiple point are not in strictly convex position."""
