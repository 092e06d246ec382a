"""Sound floating-point enclosures.

A :class:`Bracket` is a closed interval ``[lo, hi]`` of doubles that is
guaranteed to contain the true real value it stands for.  The program
computes in mpmath intervals and converts each enclosure it reports to a
bracket by padding each endpoint one ulp outward (:meth:`Bracket.from_iv`).

The achievable bracket width in double precision is a few ulps of the
value; tolerances below :data:`PRECISION_FLOOR` are rejected loudly
rather than silently returning an unsound bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath.libmp import round_nearest, to_float

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
    def from_iv(cls, x) -> "Bracket":
        """Convert an interval, an ``mpmath.iv`` object or the libmp tuple
        (lo, hi) that one wraps, to a double bracket: each end to its
        nearest double, then one double outward."""
        a, b = getattr(x, "_mpi_", x)
        lo = math.nextafter(to_float(a, rnd=round_nearest), -math.inf)
        hi = math.nextafter(to_float(b, rnd=round_nearest), math.inf)
        return cls(lo, hi)
