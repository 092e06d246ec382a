"""Exception types shared across the package, and the domain checks that
raise them."""

import math
import numbers


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


def check_k(k: int | float, name: str = "k", infinite: bool = True) -> None:
    """k must be a positive integer, or math.inf where ``infinite`` (the
    unrestricted sum, no bound on a prime's exponent); NaN, -inf,
    non-integral and non-numeric values are rejected."""
    if not (isinstance(k, numbers.Integral) and k >= 1 or infinite and k == math.inf):
        kind = "a positive integer or inf" if infinite else "a positive integer"
        raise DomainError(f"{name} must be {kind}, got {k}")


def check_r(r: float) -> None:
    """r must be a finite number above 1 (NaN and inf are rejected)."""
    if not 1 < r < math.inf:
        raise DomainError(f"r must be a finite number above 1, got {r}")
