"""Exception types shared across the package, and the domain checks that
raise them."""

import math


class SigmaDensityError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SigmaDensityError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PrecisionError(SigmaDensityError, ArithmeticError):
    """The requested tolerance is below the achievable precision floor,
    or a certified sign test could not be resolved at the floor."""


class IndeterminateError(SigmaDensityError, ArithmeticError):
    """A decision straddles a bracket boundary and cannot be certified
    either way at the working tolerance."""


class CapacityError(SigmaDensityError):
    """A requested enumeration would exceed the configured memory budget."""

    def __init__(self, message: str, suggested_bound: int | None = None):
        super().__init__(message)
        self.suggested_bound = suggested_bound


def check_k(k: int, name: str = "k") -> None:
    if k < 1:
        raise DomainError(f"{name} must be a positive integer, got {k}")


def check_r(r: float) -> None:
    """r must be a finite number above 1 (NaN and inf are rejected)."""
    if not 1 < r < math.inf:
        raise DomainError(f"r must be a finite number above 1, got {r}")
