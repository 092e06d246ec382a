"""Density criterion machinery.

For a prime budget of k repetitions and exponent r > 1, the range of the
restricted divisor sum is dense in [1, G_k(r)) exactly when the statistic

    T_k(m, r) = log(1 + p_m^{-r}) - sum_{i>m} log(local factor at p_i)

is <= 0 for every m; for r in (1, 2] it suffices to test m in {1, 2, 4}.
A positive T at some m certifies a forbidden open interval in the log
range.  T has one interval expression (:func:`t_levels`), shared by
:func:`t_func`, :func:`density_report` and ``explorer.analytic_gap_scan``;
the solver's sign tests read its sign from a log-free comparison of
products (:func:`t_sign`).  Every p^-r is exp(-r log p) with log p
taken once per prime (``zeta.log_prime``).  Everything here returns
certified brackets, and verdicts are three-valued (dense / not_dense /
undetermined) so float artifacts can never silently misclassify a
near-threshold input.  The standing inequalities and the monotonicity of
T in r are proved over intervals, by one cell cover (:func:`_cover`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import partial

from mpmath import fp, iv

from .brackets import Bracket
from .errors import DomainError, check_k, check_r
from .primes import PrimeTable
from .zeta import KernelSize, log_g_iv, log_prime, prime_power, to_iv, zeta_iv

# Truncation point of the computational surrogate V (number of primes).
V_TRUNCATION = 100_000

# The range on which T_k(m, .) for m in {1, 2, 4} and J_m are proved
# increasing by :func:`check_monotonicity`; it holds the solver's bracket
# [1.0001, 2].
R_MONOTONE_LO = 1.0001
R_MONOTONE_HI = 7.0 / 3.0

# Most cells :func:`_cover` evaluates for one claim; a claim not proved
# by then is reported failed.  A cell costs at most one zeta evaluation.
COVER_MAX_CELLS = 256


def _check_kmr(k: int, m: int, r: float) -> None:
    check_k(k)
    check_k(m, "m")
    check_r(r)


def _x(p: int, r):
    """p^-r for an interval r."""
    return prime_power(p, -r)


def _log_local(x, k: int):
    """log(1 + x + ... + x^k), the log of the local factor at p for x = p^-r."""
    return iv.log((1 - x ** (k + 1)) / (1 - x))


def _levels(table: PrimeTable, k: int, r_iv, ms: Iterable[int]):
    """(m, head, prefix) for each m of the strictly ascending ``ms``, as
    intervals: head = log(1 + p_m^-r) and prefix = sum_{i<=m} of the log
    local factor at p_i.  The prefix is carried from one level to the
    next, and the head reuses the p_m^-r its last term took."""
    prefix = iv.mpf(0)
    done = 0
    for m in ms:
        for i in range(done + 1, m + 1):
            x = _x(table.nth(i), r_iv)
            prefix += _log_local(x, k)
        done = m
        yield m, iv.log(1 + x), prefix


def t_levels(
    table: PrimeTable, k: int, r_iv, log_g, ms: Iterable[int]
) -> Iterator[tuple[int, Bracket, GapInterval | None]]:
    """T_k(m, r) = log(1 + p_m^{-r}) - sum_{i>m} log(local factor at p_i)
    for each m of the ascending ``ms``, with that tail taken as the
    interval ``log_g`` of log G_k(r) minus the prefix i <= m.

    Yields (m, T bracket, gap), where gap is the forbidden interval at
    level m when T is certified positive and None otherwise.  The prefix
    of local factors is carried from one level to the next, so a scan
    over m = 1..M costs M local factors and no zeta evaluation.
    """
    for m, head, prefix in _levels(table, k, r_iv, ms):
        t = Bracket.from_iv(head - log_g + prefix)
        gap = None
        if t.strictly_positive():
            gap = GapInterval(
                m=m, lo=Bracket.from_iv(log_g - prefix), hi=Bracket.from_iv(head)
            )
        yield m, t, gap


def t_func(table: PrimeTable, k: int, m: int, r: float) -> Bracket:
    """T_k(m, r), the one level m of :func:`t_levels`."""
    _check_kmr(k, m, r)
    r_iv = to_iv(r)
    ((_, t, _),) = t_levels(table, k, r_iv, log_g_iv(k, r_iv), (m,))
    return t


def t_sign(table: PrimeTable, k: int, m: int, r: float, size: KernelSize) -> int | None:
    """The certified sign of T_k(m, r), with zeta at ``size``, or None
    where it is not decided.  exp(T) is a ratio of products, so

        T > 0  <=>  (1 + x_m) zeta((k+1)r) prod_{i<=m} (1 - x_i^{k+1})
                        > zeta(r) prod_{i<=m} (1 - x_i),   x_i = p_i^-r,

    and the test takes no log."""
    _check_kmr(k, m, r)
    r_iv = to_iv(r)
    kept = dropped = iv.mpf(1)
    for i in range(1, m + 1):
        x = _x(table.nth(i), r_iv)
        kept *= 1 - x ** (k + 1)
        dropped *= 1 - x
    lhs = (1 + x) * zeta_iv((k + 1) * r_iv, size) * kept
    return Bracket.from_iv(lhs - zeta_iv(r_iv, size) * dropped).certified_sign()


def _log_over(p: int, x):
    """log p / (p^x + 1), decreasing in x."""
    return log_prime(p) / (prime_power(p, x) + 1)


def _log_sq_over(p: int, x):
    """(log p)^2 / (p^x + 2 + p^-x), minus the derivative of
    :func:`_log_over`; decreasing in x > 0."""
    q = prime_power(p, x)
    return log_prime(p) ** 2 / (q + 2 + 1 / q)


def _rise(table: PrimeTable, m: int, n: int, term, x):
    """A lower bound on sum_{i=m+1}^{m+n} term(p_i, .) - term(p_m, .) over
    the interval x, for a ``term`` decreasing in its argument: each term
    is taken at the end of x where it is smallest.  Exact for a point x."""
    rest = sum((term(table.nth(i), x.b) for i in range(m + 1, m + n + 1)), iv.mpf(0))
    return rest - term(table.nth(m), x.a)


def v_func(table: PrimeTable, k: int, m: int, r: float) -> float:
    """The truncated surrogate for T: the tail is cut at the 10^5-th prime.

    Plain double precision by design; V is a computational surrogate, not
    a certified quantity.  V >= T always, since truncation drops positive
    terms from the subtracted sum.  Unlike T, the sum is finite, so any
    r > 0 is admissible; sign checks at r = 1 are meaningful.
    """
    import numpy as np

    check_k(k)
    check_k(m, "m")
    if not r > 0:
        raise DomainError(f"r must be positive, got {r}")
    if m >= V_TRUNCATION:
        raise DomainError(f"m must be below the truncation point {V_TRUNCATION}")
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


@dataclass(frozen=True)
class InequalityCheck:
    """The claim "expression > 0 on the closed range [r_lo, r_hi]", as
    covered by :func:`_cover`.  ``cells`` counts the cells accepted.  When
    ``passed``, they cover the range and ``min_slack`` is a certified lower
    bound on the expression over the whole range; otherwise it is the
    lower bound of the cell that could not be accepted."""

    name: str
    description: str
    r_lo: float
    r_hi: float
    cells: int
    min_slack: float
    passed: bool


@dataclass(frozen=True)
class InequalityReport:
    checks: tuple[InequalityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _cover(claim, lo: float, hi: float) -> tuple[int, float, bool]:
    """Prove claim(r) > 0 for every r in [lo, hi] by range enclosure over
    a cover of cells (Moore, Kearfott and Cloud, *Introduction to Interval
    Analysis*, ch. 5): ``claim`` maps an interval cell to an interval
    enclosing the claim's values there.  A cell whose lower bound is > 0
    is accepted; any other cell is bisected.  Returns the cells accepted,
    the lowest lower bound (rounded down to a double), and whether the
    claim is proved.  It is not when COVER_MAX_CELLS cells have been
    evaluated, or when a cell too narrow to bisect is not accepted."""
    accepted, evaluated, lowest = 0, 0, math.inf
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        evaluated += 1
        lower = Bracket.from_iv(claim(iv.mpf([a, b]))).lo
        if lower > 0:
            accepted += 1
            lowest = min(lowest, lower)
            continue
        mid = a + (b - a) * 0.5
        if evaluated >= COVER_MAX_CELLS or not a < mid < b:
            return accepted, lower, False
        stack += [(mid, b), (a, mid)]
    return accepted, lowest, True


def _check(name: str, description: str, lo: float, hi: float, claim) -> InequalityCheck:
    cells, min_slack, passed = _cover(claim, lo, hi)
    return InequalityCheck(name, description, lo, hi, cells, min_slack, passed)


def check_inequalities() -> InequalityReport:
    """Proofs, by :func:`_cover`, of the standing inequalities behind the
    selector and dichotomy arguments on their closed ranges.  Each is
    evaluated in powers p^-r, the same function as its description with
    fewer occurrences of r, which keeps its enclosures narrow, and each
    power is taken once per cell.

    Failures are reported findings, never exceptions.
    """
    return InequalityReport(
        checks=(
            _check(
                "two_vs_three_lower",
                "(1+3^-r)(1+3^-r+3^-2r) - (1+2^-r) > 0",
                1.67,
                1.98,
                lambda r: (1 + (x3 := _x(3, r))) * (1 + x3 + _x(3, 2 * r)) - (1 + _x(2, r)),
            ),
            _check(
                "three_vs_five_seven",
                "(1+3^-r) - (5^r/(5^r-1))((7^r+1)/(7^r-1)) > 0",
                1.67,
                1.98,
                lambda r: (1 + _x(3, r)) - ((1 + (x7 := _x(7, r))) / (1 - x7)) / (1 - _x(5, r)),
            ),
            _check(
                "pair_product_m2",
                "(1+2^-r)(3^r/(3^r+1)) - (1+3^-r) > 0",
                1.8638,
                2.0,
                lambda r: (1 + _x(2, r)) / (1 + (x3 := _x(3, r))) - (1 + x3),
            ),
            _check(
                "pair_product_m4",
                "(1+2^-r)(3^r/(3^r+1))(5^r/(5^r+1))(7^r/(7^r+1)) - (1+7^-r) > 0",
                1.8638,
                2.0,
                lambda r: (1 + _x(2, r))
                / ((1 + _x(3, r)) * (1 + _x(5, r)) * (1 + (x7 := _x(7, r))))
                - (1 + x7),
            ),
            _check(
                "square_dominates_zeta",
                "(1+2^-r)^2 - zeta(r) > 0",
                R_MONOTONE_HI,
                3.0,
                lambda r: (1 + _x(2, r)) ** 2 - zeta_iv(r),
            ),
        )
    )


def check_monotonicity(table: PrimeTable) -> InequalityReport:
    """Proofs, by :func:`_cover`, of the monotonicity claims behind the
    dichotomy and the solver, on [R_MONOTONE_LO, R_MONOTONE_HI]:

    * T_k(m, .) is increasing for m in {1, 2, 4} and every k.  Its
      derivative is sum_{i>m} w_i(r) log p_i - log p_m / (p_m^r + 1),
      where w_i, the mean of the geometric law with ratio p_i^-r truncated
      to {0..k}, decreases in r and grows with k.  Dropping the terms
      i > m + 10, all positive, and taking k = 1, where
      w_i = 1 / (p_i^r + 1), leaves a bound that holds for every k.
    * So is the limit equation of ``solver.eta_limit``: its function,
      log(1 + 3^-r) - log zeta(r) - log(1 - 2^-r) - log(1 - 3^-r), is
      T at m = 2 as k -> oo, whose weights w_i = 1 / (p_i^r - 1) exceed
      the k = 1 weights, so ``t_increasing_m2`` proves it too.
    * J_m(x) = log p_m / (p_m^x + 1) minus the same expression summed over
      the next six primes is increasing: J_m' is the same difference of
      (log p)^2 / (p^x + 2 + p^-x), each decreasing in x.
    * J_m(7/3) < 0.
    """
    lo, hi = R_MONOTONE_LO, R_MONOTONE_HI
    checks = []
    for m in (1, 2, 4):
        t_slope = partial(_rise, table, m, 10, _log_over)
        j_slope = partial(_rise, table, m, 6, _log_sq_over)
        minus_j = partial(_rise, table, m, 6, _log_over)
        checks += [
            _check(f"t_increasing_m{m}", f"dT_k({m}, r)/dr > 0 for every k", lo, hi, t_slope),
            _check(f"j_increasing_m{m}", f"J_{m}'(x) > 0", lo, hi, j_slope),
            _check(f"j_negative_m{m}", f"J_{m}(7/3) < 0", hi, hi, minus_j),
        ]
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
