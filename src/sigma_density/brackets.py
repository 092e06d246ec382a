"""Sound floating-point enclosures.

A :class:`Bracket` is a closed interval ``[lo, hi]`` of doubles that is
guaranteed to contain the true real value it stands for.  The program
computes on pairs of Python integers in units of 2^-F and converts each
enclosure it reports to a bracket by rounding each end to its nearest
double and padding it one double outward (:meth:`Bracket.from_units`).

The achievable bracket width in double precision is a few ulps of the
value; tolerances below :data:`PRECISION_FLOOR` are rejected loudly
rather than silently returning an unsound bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, PrecisionError

# Narrowest honest bracket width for O(1) values in double precision.
PRECISION_FLOOR = 1e-14


def check_eps(eps: float) -> None:
    if not eps > 0:
        raise DomainError(f"tolerance must be positive, got {eps}")
    if eps < PRECISION_FLOOR:
        raise PrecisionError(
            f"requested tolerance {eps} is below the precision floor {PRECISION_FLOOR}"
        )


@dataclass(frozen=True)
class Bracket:
    """A real value carried as [lo, hi] with guaranteed enclosure."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise DomainError("bracket endpoints must not be NaN")
        if self.lo > self.hi:
            raise DomainError(f"invalid bracket: lo={self.lo} > hi={self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def strictly_positive(self) -> bool:
        return self.lo > 0.0

    def nonpositive(self) -> bool:
        return self.hi <= 0.0

    def straddles_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi and not (self.lo == self.hi == 0.0)

    def certified_sign(self) -> int | None:
        """-1 or +1 when the sign is certain, None when 0 is inside."""
        if self.lo > 0.0:
            return 1
        if self.hi < 0.0:
            return -1
        return None

    @classmethod
    def exact(cls, x: float) -> "Bracket":
        return cls(x, x)

    @classmethod
    def from_units(cls, lo: int, hi: int, unit: int) -> "Bracket":
        """The interval [lo 2^-unit, hi 2^-unit] of integers lo <= hi as a
        double bracket: each end to its nearest double by Python's int
        true division, which rounds correctly (ties to even, subnormals
        included), then one double outward."""
        if unit < 0:
            lo, hi, unit = lo << -unit, hi << -unit, 0
        scale = 1 << unit
        return cls(math.nextafter(lo / scale, -math.inf), math.nextafter(hi / scale, math.inf))
