"""Shared exception types for the igraphjac package."""

from __future__ import annotations


class InvalidParams(ValueError):
    """An argument is outside the domain of the requested operation.

    Bad graph parameters, precisions and coefficients, and matrices that are
    empty, ragged, non-integer or of the wrong shape all raise it.
    """


class LoopError(InvalidParams):
    """A step size is congruent to 0 mod n, which would create loops."""


class DisconnectedError(InvalidParams):
    """The requested graph is disconnected.

    The graph splits into ``m`` isomorphic components; ``m`` is stored on
    the exception.
    """

    def __init__(self, m: int, message: str | None = None):
        self.m = m
        super().__init__(message or f"graph is disconnected ({m} components)")


class InternalInconsistency(ArithmeticError):
    """Two routes that must agree exactly have produced different answers."""


class NotASquare(InternalInconsistency):
    """An integer expected to be a perfect square is not one.

    Every exact tree count splits as multiplier * n * a^2, so a count that
    does not is a failed cross-check.
    """


class PrecisionExhausted(ArithmeticError):
    """A floating-point result is too uncertain to round safely.

    Retry with a larger ``precision_bits``.
    """


class ConvergenceFailure(ArithmeticError):
    """The root iteration failed to reach the requested tolerance."""


class ClassificationFailure(ArithmeticError):
    """A root could not be placed inside/outside the unit circle."""


class QuadratureFailure(ArithmeticError):
    """Numerical integration did not reach the requested accuracy."""
