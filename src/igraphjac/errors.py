"""Shared exception types for the igraphjac package, and the two argument checks."""

from __future__ import annotations

from math import gcd


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

    def __init__(self, m: int):
        self.m = m
        super().__init__(f"graph is disconnected ({m} components)")


def check_int(name: str, value, least: int | None = None):
    """Raise InvalidParams unless value is an int, not a bool, and (given least) at least least."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParams(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise InvalidParams(f"{name} must be at least {least}, got {value}")


def check_steps(k: int, l: int):
    """Raise InvalidParams unless the steps k and l are coprime positive ints."""
    check_int("k", k, 1)
    check_int("l", l, 1)
    if gcd(k, l) != 1:
        raise InvalidParams(f"steps must be coprime, got k={k}, l={l}")


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
