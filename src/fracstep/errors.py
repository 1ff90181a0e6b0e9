"""Exception types shared across the package.

Every failure mode falls into one of four buckets: bad inputs (domain),
a non-finite or failed computation inside the solver (numeric), declared
regularity of the source data contradicted by its samples, and malformed
run configuration.  Callers that need to distinguish them can catch the
specific type; ``FracstepError`` catches them all.  ``check_count``
is the one check of an integer argument, a count or an index.
"""

from __future__ import annotations

import numbers


class FracstepError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FracstepError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class NumericError(FracstepError, ArithmeticError):
    """Overflow, non-finite intermediate, or failed solve inside the solver.

    Carries the mode and segment indices of the failure, where known, so
    batch drivers can report the offending subproblem.
    """

    def __init__(self, message: str, *, mode: int | None = None,
                 segment: int | None = None) -> None:
        if mode is not None or segment is not None:
            message = f"{message} (mode={mode}, segment={segment})"
        super().__init__(message)
        self.mode = mode
        self.segment = segment


class RegularityError(FracstepError, ValueError):
    """Sampled source data violates its declared regularity.

    The weighted-derivative hypothesis requires the time derivative of the
    source to blow up no faster than the declared power of the distance to
    the segment's left endpoint; this error reports a fitted growth rate
    that contradicts the declaration.
    """


class ConfigError(FracstepError, ValueError):
    """A run configuration failed schema validation or semantic checks."""

    def __init__(self, message: str, *, pointer: str = "") -> None:
        super().__init__(message)
        self.pointer = pointer

    def to_json(self) -> dict:
        return {"error": "config", "pointer": self.pointer, "message": str(self)}


def check_count(value, minimum: int, what: str) -> None:
    """Raise ``DomainError`` unless ``value``, an integer argument with a
    lower bound (a count or an index), is an integer of at least
    ``minimum``; a bool or an integer-valued float is not an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"need at least {minimum} {what}, got {value}")
