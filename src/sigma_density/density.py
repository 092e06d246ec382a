"""Density criterion machinery.

For a prime budget of k repetitions and exponent r > 1, the range of the
restricted divisor sum is dense in [1, G_k(r)) exactly when the statistic

    T_k(m, r) = log(1 + p_m^{-r}) - sum_{i>m} log(local factor at p_i)

is <= 0 for every m; for r in (1, 2] it suffices to test m in {1, 2, 4}.
A positive T at some m certifies a forbidden open interval in the log
range.  T has one interval expression (:func:`t_levels`), shared by
:func:`t_func`, :func:`gap_interval`, :func:`density_report` and the gap
scan.  Everything here returns certified brackets, and verdicts are
three-valued (dense / not_dense / undetermined) so float artifacts can
never silently misclassify a near-threshold input.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
from mpmath import fp, iv

from .brackets import Bracket
from .errors import DomainError, IndeterminateError, check_k, check_r
from .primes import PrimeTable
from .zeta import (
    iv_pow,
    log_g_iv,
    log_local_factor_iv,
    to_iv,
    zeta_iv,
)

# Truncation point of the computational surrogate V (number of primes).
V_TRUNCATION = 100_000

# Upper end of the interval on which monotonicity of T in r is available.
R_MONOTONE_HI = 7.0 / 3.0

# Primes after p_m summed in double precision by :func:`t_derivative`
# before its certified tail bound takes over.
DERIVATIVE_PREFIX_PRIMES = 5000

# Finest and coarsest grid steps of :func:`check_inequalities`.  Its last
# check costs one certified zeta evaluation (about 1 ms) per point, some
# (3 - 7/3)/step of them, so a run at the floor takes about 6 s.
GRID_STEP_MIN = 1e-4
GRID_STEP_MAX = 1e-3


def _check_kmr(k: int, m: int, r: float) -> None:
    check_k(k)
    check_k(m, "m")
    check_r(r)


def _log_one_plus_pm_iv(table: PrimeTable, m: int, r_iv):
    pm = iv.mpf(table.nth(m))
    return iv.log(1 + iv_pow(pm, -r_iv))


def _prefix_log_factors_iv(table: PrimeTable, k: int, m: int, r_iv):
    total = iv.mpf(0)
    for i in range(1, m + 1):
        total += log_local_factor_iv(table.nth(i), k, r_iv)
    return total


def tail(table: PrimeTable, k: int, m: int, r: float) -> Bracket:
    """The infinite tail sum_{i>m} log(local factor at p_i).

    Computed by the exact rearrangement log G_k(r) minus the finite prefix,
    so the enclosure inherits the zeta bracket's certification.  m = 0
    returns log G_k(r) itself.
    """
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    check_k(k)
    check_r(r)
    r_iv = to_iv(r)
    return Bracket.from_iv(log_g_iv(k, r_iv) - _prefix_log_factors_iv(table, k, m, r_iv))


def t_levels(
    table: PrimeTable, k: int, r_iv, log_g, ms: Iterable[int]
) -> Iterator[tuple[int, Bracket, GapInterval | None]]:
    """T_k(m, r) = log(1 + p_m^{-r}) - tail(k, m, r) for each m of the
    ascending ``ms``, given the interval ``log_g`` of log G_k(r).

    Yields (m, T bracket, gap), where gap is the forbidden interval at
    level m when T is certified positive and None otherwise.  The prefix
    of local factors is carried from one level to the next, so a scan
    over m = 1..M costs M local factors and no zeta evaluation.
    """
    prefix = iv.mpf(0)
    done = 0
    for m in ms:
        for i in range(done + 1, m + 1):
            prefix += log_local_factor_iv(table.nth(i), k, r_iv)
        done = m
        head = _log_one_plus_pm_iv(table, m, r_iv)
        t = Bracket.from_iv(head - log_g + prefix)
        gap = None
        if t.strictly_positive():
            gap = GapInterval(
                m=m, lo=Bracket.from_iv(log_g - prefix), hi=Bracket.from_iv(head)
            )
        yield m, t, gap


def _level(
    table: PrimeTable, k: int, m: int, r: float
) -> tuple[int, Bracket, GapInterval | None]:
    _check_kmr(k, m, r)
    r_iv = to_iv(r)
    (level,) = t_levels(table, k, r_iv, log_g_iv(k, r_iv), (m,))
    return level


def t_func(table: PrimeTable, k: int, m: int, r: float) -> Bracket:
    """T_k(m, r) = log(1 + p_m^{-r}) - tail(k, m, r)."""
    _, t, _ = _level(table, k, m, r)
    return t


def t_derivative(table: PrimeTable, k: int, m: int, r: float) -> Bracket:
    """d/dr of T_k(m, r) on (1, 7/3), as a certified bracket.

    The derivative series is

        sum_{i>m} w_i(r) log p_i  -  log p_m / (p_m^r + 1),
        w_i = (sum_{a=1}^k a p_i^{-ar}) / (sum_{b=0}^k p_i^{-br}).

    The first DERIVATIVE_PREFIX_PRIMES terms are summed in double precision
    with a rounding pad.  The dropped tail is nonnegative; it is bounded above
    by sum_{i>I} log(p_i) p_i^{-r} / (1 - p_{I+1}^{-r})^2, and the prime
    sum in turn by the integral of log(x) x^{-r} from p_I, giving
    p_I^{1-r} (log p_I / (r-1) + 1/(r-1)^2).
    """
    _check_kmr(k, m, r)
    if not 1 < r < R_MONOTONE_HI:
        raise DomainError(f"derivative domain is (1, 7/3), got r={r}")
    last = m + DERIVATIVE_PREFIX_PRIMES
    p = table.slice(m + 1, last).astype(np.float64)
    x = p ** (-r)
    numerator = np.zeros_like(x)
    denominator = np.ones_like(x)
    xa = np.ones_like(x)
    for a in range(1, k + 1):
        xa = xa * x
        numerator += a * xa
        denominator += xa
    terms = (numerator / denominator) * np.log(p)
    prefix = float(np.sum(terms))
    rounding = (math.log2(len(terms)) + 6) * 2.3e-16 * float(np.sum(np.abs(terms)))

    p_last = float(table.nth(last))
    x_next = float(table.nth(last + 1)) ** (-r)
    tail_hi = (
        p_last ** (1.0 - r)
        * (math.log(p_last) / (r - 1.0) + 1.0 / (r - 1.0) ** 2)
        / (1.0 - x_next) ** 2
    )

    pm = float(table.nth(m))
    pm_term = math.log(pm) / (pm**r + 1.0)
    pm_pad = 4e-16 * abs(pm_term)

    lo = prefix - rounding - pm_term - pm_pad
    hi = prefix + rounding + tail_hi * (1 + 1e-14) - pm_term + pm_pad
    return Bracket(math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))


def j_func(table: PrimeTable, m: int, x: float) -> float:
    """log p_m / (p_m^x + 1) minus the same expression summed over the
    next six primes; negative at 7/3 for m in {1, 2, 4}."""
    if m not in (1, 2, 4):
        raise DomainError(f"m must be one of 1, 2, 4, got {m}")
    if not 1 < x <= R_MONOTONE_HI:
        raise DomainError(f"domain is (1, 7/3], got x={x}")
    pm = float(table.nth(m))
    head = math.log(pm) / (pm**x + 1.0)
    rest = sum(
        math.log(p) / (p**x + 1.0)
        for p in (float(table.nth(i)) for i in range(m + 1, m + 7))
    )
    return head - rest


def v_func(table: PrimeTable, k: int, m: int, r: float) -> float:
    """The truncated surrogate for T: the tail is cut at the 10^5-th prime.

    Plain double precision by design; V is a computational surrogate, not
    a certified quantity.  V >= T always, since truncation drops positive
    terms from the subtracted sum.  Unlike T, the sum is finite, so any
    r > 0 is admissible; sign checks at r = 1 are meaningful.
    """
    check_k(k)
    check_k(m, "m")
    if not r > 0:
        raise DomainError(f"r must be positive, got {r}")
    if m >= V_TRUNCATION:
        raise DomainError(f"m must be below the truncation point {V_TRUNCATION}")
    if len(table) < V_TRUNCATION:
        raise DomainError(
            f"table holds {len(table)} primes; the surrogate needs {V_TRUNCATION}"
        )
    pm = float(table.nth(m))
    p = table.slice(m + 1, V_TRUNCATION).astype(np.float64)
    x = p ** (-r)
    local = (1.0 - x ** (k + 1)) / (1.0 - x)
    return math.log1p(pm ** (-r)) - float(np.sum(np.log(local)))


def t_float(table: PrimeTable, k: int, m: int, r: float) -> float:
    """T_k(m, r) in plain double precision, from ``mpmath.fp.zeta``.

    Not a certified quantity: the solver walks its bisection path with
    this estimate and certifies the path's endpoints with :func:`t_func`.
    Every term is a log of size at most 10 computed to a few ulps, so the
    estimate is within 2e-15 of T on [1.0001, 2].
    """
    _check_kmr(k, m, r)
    log_g = math.log(fp.zeta(r)) - math.log(fp.zeta((k + 1) * r))
    prefix = 0.0
    for i in range(1, m + 1):
        x = float(table.nth(i)) ** (-r)
        prefix += math.log1p(x * (1.0 - x**k) / (1.0 - x))
    return math.log1p(float(table.nth(m)) ** (-r)) - log_g + prefix


@dataclass(frozen=True)
class GapInterval:
    """A certified forbidden open interval in the log range.

    ``lo`` is the tail bracket, ``hi`` the bracket of log(1 + p_m^{-r}).
    The certainly-forbidden core is (lo.hi, hi.lo).
    """

    m: int
    lo: Bracket
    hi: Bracket

    @property
    def inner(self) -> tuple[float, float]:
        return (self.lo.hi, self.hi.lo)

    @property
    def width(self) -> float:
        return max(0.0, self.hi.lo - self.lo.hi)


def gap_interval(table: PrimeTable, k: int, m: int, r: float) -> GapInterval | None:
    """The forbidden log-interval at level m, or None when T_k(m,r) <= 0."""
    _, t, gap = _level(table, k, m, r)
    if t.nonpositive():
        return None
    if gap is None:
        raise IndeterminateError(
            f"T_{k}({m}, {r}) bracket [{t.lo}, {t.hi}] straddles 0 at working precision"
        )
    return gap


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    description: str
    r_lo: float
    r_hi: float
    step: float
    points: int
    min_slack: float
    argmin_r: float
    passed: bool


@dataclass(frozen=True)
class InequalityReport:
    checks: tuple[InequalityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _grid(lo: float, hi: float, step: float, include_hi: bool) -> np.ndarray:
    n = int(round((hi - lo) / step))
    pts = lo + step * np.arange(1, n)
    if include_hi:
        pts = np.append(pts, hi)
    return pts


def check_inequalities(grid_step: float = 1e-3) -> InequalityReport:
    """Grid verification, with minimum-slack reporting, of the standing
    inequalities behind the selector and dichotomy arguments.

    Failures are reported findings, never exceptions.  The zeta bound in
    the last check uses the certified upper bracket endpoint, so positive
    slack there is a sound claim at each grid point.  The step must lie
    in [GRID_STEP_MIN, GRID_STEP_MAX].
    """
    if not GRID_STEP_MIN <= grid_step <= GRID_STEP_MAX:
        raise DomainError(f"grid step must lie in [1e-4, 1e-3], got {grid_step}")
    checks = []

    def run(name, description, lo, hi, slack_fn, include_hi=False):
        pts = _grid(lo, hi, grid_step, include_hi)
        slack = np.array([slack_fn(float(r)) for r in pts])
        i = int(np.argmin(slack))
        checks.append(
            InequalityCheck(
                name=name,
                description=description,
                r_lo=lo,
                r_hi=hi,
                step=grid_step,
                points=len(pts),
                min_slack=float(slack[i]),
                argmin_r=float(pts[i]),
                passed=bool(np.all(slack > 0)),
            )
        )

    run(
        "two_vs_three_lower",
        "(1+3^-r)(1+3^-r+3^-2r) - (1+2^-r) > 0",
        1.67,
        1.98,
        lambda r: (1 + 3**-r) * (1 + 3**-r + 3 ** (-2 * r)) - (1 + 2**-r),
    )
    run(
        "three_vs_five_seven",
        "(1+3^-r) - (5^r/(5^r-1))((7^r+1)/(7^r-1)) > 0",
        1.67,
        1.98,
        lambda r: (1 + 3**-r) - (5**r / (5**r - 1)) * ((7**r + 1) / (7**r - 1)),
    )
    run(
        "pair_product_m2",
        "(1+2^-r)(3^r/(3^r+1)) - (1+3^-r) > 0",
        1.8638,
        2.0,
        lambda r: (1 + 2**-r) * (3**r / (3**r + 1)) - (1 + 3**-r),
    )
    run(
        "pair_product_m4",
        "(1+2^-r)(3^r/(3^r+1))(5^r/(5^r+1))(7^r/(7^r+1)) - (1+7^-r) > 0",
        1.8638,
        2.0,
        lambda r: (1 + 2**-r)
        * (3**r / (3**r + 1))
        * (5**r / (5**r + 1))
        * (7**r / (7**r + 1))
        - (1 + 7**-r),
    )
    run(
        "square_dominates_zeta",
        "(1+2^-r)^2 - zeta(r) > 0 using the certified zeta upper bound",
        R_MONOTONE_HI,
        3.0,
        lambda r: (1 + 2**-r) ** 2 - Bracket.from_iv(zeta_iv(to_iv(r))).hi,
        include_hi=True,
    )
    return InequalityReport(checks=tuple(checks))


@dataclass(frozen=True)
class DensityReport:
    """Verdict for a (k, r) pair with the supporting brackets.

    ``per_m`` maps m in {1, 2, 4} to its T bracket and ``log_g`` is the
    bracket of log G_k(r) they share.  ``verdict`` is one of 'dense',
    'not_dense', 'undetermined'; ``undetermined_width`` carries the widest
    straddling T bracket when applicable.

    At r exactly equal to the density threshold the analytic answer is
    'dense' (the boundary is included on the dense side), but no finite
    bracket can resolve equality; such inputs come back 'undetermined'.
    """

    k: int
    r: float
    per_m: dict[int, Bracket]
    log_g: Bracket
    verdict: str
    undetermined_width: float = 0.0


def density_report(table: PrimeTable, k: int, r: float) -> DensityReport:
    """Three-valued density verdict for (k, r), from T at m in {1, 2, 4}.

    A T certified positive at any m certifies a forbidden interval, so
    the verdict is not_dense.  For r <= 2 the three-point test is exact:
    all three T certified <= 0 gives dense.  Anything else is
    undetermined.  log G_k(r) is evaluated once for the three levels.
    """
    check_k(k)
    check_r(r)
    r_iv = to_iv(r)
    log_g = log_g_iv(k, r_iv)
    per_m = {m: t for m, t, _ in t_levels(table, k, r_iv, log_g, (1, 2, 4))}
    t_brackets = list(per_m.values())
    verdict, width = "undetermined", 0.0
    if any(t.strictly_positive() for t in t_brackets):
        verdict = "not_dense"
    elif r <= 2.0 and all(t.nonpositive() for t in t_brackets):
        verdict = "dense"
    else:
        width = max((t.width for t in t_brackets if t.straddles_zero()), default=0.0)
    return DensityReport(
        k=k,
        r=r,
        per_m=per_m,
        log_g=Bracket.from_iv(log_g),
        verdict=verdict,
        undetermined_width=width,
    )
