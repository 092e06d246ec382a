"""Certified root solving for the density thresholds.

Every threshold is the unique root in (1, 2) of a function that is
strictly increasing there, so plain bisection with certified sign tests
is the whole method: each returned bracket has certified opposite signs
at its endpoints, or carries an explicit boundary flag for the "no root,
threshold = 2" case.  Faster root finders buy nothing at this scale and
would complicate the certification story.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from mpmath import iv

from .brackets import PRECISION_FLOOR, Bracket, check_eps
from .density import V_TRUNCATION, t_func, v_func
from .errors import DomainError, PrecisionError
from .primes import PrimeTable
from .zeta import iv_pow, log_g_iv, to_iv, zeta_iv

DEFAULT_EPS = 1e-10
LIMIT_EPS = 1e-9

# When a candidate bisection point's sign is indeterminate, try these
# fractional offsets of the current width instead; at most one sixteenth
# of the width can be "too close to the root" at working precision.
_BISECT_OFFSETS = (0.0, 0.125, -0.125, 0.1875, -0.1875)


@dataclass(frozen=True)
class RootResult:
    """A solved threshold with certified enclosure.

    ``value`` encloses the root; unless ``boundary`` is set, the target
    function has certified opposite signs at value.lo and value.hi.
    ``residual`` is the function bracket at the midpoint.  ``boundary``
    marks the no-root case where the threshold is exactly 2.
    """

    value: Bracket
    iterations: int
    residual: Bracket
    method: str
    boundary: bool = False


def _certified_bisection(
    sign_fn: Callable[[float], Bracket],
    lo: float,
    hi: float,
    eps: float,
    method: str,
) -> RootResult:
    """Bisection on a strictly increasing function with bracket-valued
    sign evaluations.  Preconditions: certified negative at lo, certified
    positive at hi (checked by the callers)."""
    iterations = 0
    a, b = lo, hi
    while b - a > eps:
        width = b - a
        placed = False
        for offset in _BISECT_OFFSETS:
            mid = a + width * (0.5 + offset)
            sign = sign_fn(mid).certified_sign()
            if sign is not None:
                iterations += 1
                if sign < 0:
                    a = mid
                else:
                    b = mid
                placed = True
                break
        if not placed:
            raise PrecisionError(
                f"sign evaluation indeterminate throughout [{a}, {b}]; "
                "the requested tolerance is below the certification floor"
            )
    return RootResult(
        value=Bracket(a, b),
        iterations=iterations,
        residual=sign_fn(0.5 * (a + b)),
        method=method,
    )


def _certified_negative_start(sign_fn: Callable[[float], Bracket], start: float) -> float:
    """Walk the lower endpoint toward 1 until the sign is certified
    negative; the target diverges to -inf at 1+, so this terminates."""
    a = start
    for _ in range(60):
        if sign_fn(a).certified_sign() == -1:
            return a
        a = 1.0 + (a - 1.0) / 4.0
    raise PrecisionError("could not certify a negative sign near r = 1")


def r_threshold(table: PrimeTable, k: int, m: int, eps: float = DEFAULT_EPS) -> RootResult:
    """The unique root of T_k(m, .) in (1, 2), or the boundary value 2
    when T_k(m, .) stays negative on the whole interval."""
    if k < 1:
        raise DomainError(f"k must be a positive integer, got {k}")
    if m not in (1, 2, 4):
        raise DomainError(f"m must be one of 1, 2, 4, got {m}")
    check_eps(eps)

    def sign_fn(r: float) -> Bracket:
        return t_func(table, k, m, r)

    at_two = sign_fn(2.0)
    if at_two.nonpositive():
        return RootResult(
            value=Bracket.exact(2.0),
            iterations=0,
            residual=at_two,
            method="boundary (no sign change on (1, 2))",
            boundary=True,
        )
    if not at_two.strictly_positive():
        raise PrecisionError(f"sign of T_{k}({m}, 2) indeterminate at working precision")
    a = _certified_negative_start(sign_fn, 1.0001)
    return _certified_bisection(sign_fn, a, 2.0, eps, method="bisection on T")


def m_selector(table: PrimeTable, k: int) -> int:
    """The smallest m in {1, 2, 4} whose threshold attains the minimum."""
    if k < 1:
        raise DomainError(f"k must be a positive integer, got {k}")
    roots = {m: r_threshold(table, k, m, DEFAULT_EPS) for m in (1, 2, 4)}
    return select_m(table, k, roots, DEFAULT_EPS)


def select_m(table: PrimeTable, k: int, roots: dict[int, RootResult], eps: float) -> int:
    """The selector from thresholds already solved at ``eps``.

    Brackets are re-solved at eps/100 only while the winner has not
    separated from the rest; a tie that persists at the precision floor
    raises with the tied candidates.
    """
    while True:
        best = min((1, 2, 4), key=lambda m: (roots[m].value.hi, m))
        tied = [
            m
            for m in (1, 2, 4)
            if m != best
            and roots[m].value.lo <= roots[best].value.hi
            and not (roots[m].boundary and roots[best].boundary)
        ]
        exact_ties = [
            m for m in (1, 2, 4) if m != best and roots[m].boundary and roots[best].boundary
        ]
        if not tied:
            # Boundary results are exact; equal boundaries tie to smallest m.
            if exact_ties:
                return min([best] + exact_ties)
            return best
        if eps / 100 < PRECISION_FLOOR:
            raise PrecisionError(
                f"threshold brackets for m={sorted([best] + tied)} remain "
                "unseparated at the precision floor"
            )
        eps /= 100
        roots = {m: r_threshold(table, k, m, eps) for m in (1, 2, 4)}


def _eta_defining_sign(table: PrimeTable, k: int, r: float) -> Bracket:
    """Log-form residual of the defining equation for the k-th threshold;
    strictly increasing in r, zero exactly at the threshold."""
    r_iv = to_iv(r)
    if k == 1:
        lhs = 2 * iv.log(1 + iv_pow(iv.mpf(2), -r_iv))
    else:
        s2 = iv.mpf(0)
        s3 = iv.mpf(0)
        for j in range(k + 1):
            s2 += iv_pow(iv.mpf(2), -j * r_iv)
            s3 += iv_pow(iv.mpf(3), -j * r_iv)
        lhs = iv.log(s2) + iv.log(s3) + iv.log(1 + iv_pow(iv.mpf(3), -r_iv))
    return Bracket.from_iv(lhs - log_g_iv(k, r_iv))


def eta(table: PrimeTable, k: int, eps: float = DEFAULT_EPS) -> RootResult:
    """The density threshold for k, solved from its defining equation.

    Independent of :func:`r_threshold`; agreement of the two within
    combined bracket widths is a consistency check exercised in tests.
    """
    if k < 1:
        raise DomainError(f"k must be a positive integer, got {k}")
    check_eps(eps)

    def sign_fn(r: float) -> Bracket:
        return _eta_defining_sign(table, k, r)

    at_two = sign_fn(2.0)
    if not at_two.strictly_positive():
        raise PrecisionError(f"defining equation not certified positive at r=2 for k={k}")
    a = _certified_negative_start(sign_fn, 1.0001)
    return _certified_bisection(sign_fn, a, 2.0, eps, method="bisection on defining equation")


def eta_limit(eps: float = LIMIT_EPS) -> RootResult:
    """The limiting threshold: the root in (1, 2) of

        (2^r/(2^r - 1)) ((3^r + 1)/(3^r - 1)) = zeta(r),

    solved in log form by certified bisection."""
    check_eps(eps)

    def sign_fn(r: float) -> Bracket:
        r_iv = to_iv(r)
        p2 = iv_pow(iv.mpf(2), r_iv)
        p3 = iv_pow(iv.mpf(3), r_iv)
        lhs = iv.log(p2 / (p2 - 1)) + iv.log((p3 + 1) / (p3 - 1))
        return Bracket.from_iv(lhs - iv.log(zeta_iv(r_iv)))

    at_two = sign_fn(2.0)
    if not at_two.strictly_positive():
        raise PrecisionError("limit equation not certified positive at r=2")
    a = _certified_negative_start(sign_fn, 1.0001)
    return _certified_bisection(sign_fn, a, 2.0, eps, method="bisection on limit equation")


def r1_surrogate(table: PrimeTable, eps: float = 1e-8) -> RootResult:
    """Root of the truncated surrogate V_1(1, .) on (1, 7/3).

    The surrogate itself is a plain double-precision sum over the first
    10^5 primes, so this result is float-certified only: the sign tests
    are exact for the computed V, whose own rounding error (~1e-12) is
    far below any tolerance of interest here.
    """
    check_eps(eps)
    if len(table) < V_TRUNCATION + 1:
        raise DomainError(f"surrogate needs a table of at least {V_TRUNCATION} primes")

    def v(r: float) -> float:
        return v_func(table, 1, 1, r)

    a, b = 1.5, 7.0 / 3.0
    if not (v(a) < 0 < v(b)):
        a = 1.0001
        if not (v(a) < 0 < v(b)):
            raise PrecisionError("no sign change for the surrogate on (1, 7/3)")
    iterations = 0
    while b - a > eps:
        mid = 0.5 * (a + b)
        if v(mid) < 0:
            a = mid
        else:
            b = mid
        iterations += 1
    mid = 0.5 * (a + b)
    return RootResult(
        value=Bracket(a, b),
        iterations=iterations,
        residual=Bracket.from_value_error(v(mid), 1e-11),
        method="float64 bisection on truncated surrogate",
    )


@dataclass(frozen=True)
class EtaRow:
    k: int
    m_min: int
    thresholds: dict[int, RootResult]  # m in {1, 2, 4}
    eta: RootResult


@dataclass(frozen=True)
class EtaTable:
    rows: tuple[EtaRow, ...] = field(default=())

    def __post_init__(self):
        prev_hi = None
        for row in self.rows:
            chosen = row.thresholds[row.m_min]
            if not chosen.boundary:
                overlap = (
                    max(chosen.value.lo, row.eta.value.lo)
                    <= min(chosen.value.hi, row.eta.value.hi)
                )
                if not overlap:
                    raise PrecisionError(
                        f"threshold and defining-equation brackets disagree at k={row.k}"
                    )
            if prev_hi is not None and row.eta.value.lo <= prev_hi:
                raise PrecisionError(
                    f"threshold column not strictly increasing at k={row.k}"
                )
            prev_hi = row.eta.value.hi


def eta_table(table: PrimeTable, k_max: int, eps: float = DEFAULT_EPS) -> EtaTable:
    """Thresholds, selector values, and density constants for k = 1..k_max."""
    if k_max < 1:
        raise DomainError(f"k_max must be a positive integer, got {k_max}")
    rows = []
    for k in range(1, k_max + 1):
        thresholds = {m: r_threshold(table, k, m, eps) for m in (1, 2, 4)}
        rows.append(
            EtaRow(
                k=k,
                m_min=select_m(table, k, thresholds, eps),
                thresholds=thresholds,
                eta=eta(table, k, eps),
            )
        )
    return EtaTable(rows=tuple(rows))
