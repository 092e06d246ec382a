"""Density criterion machinery.

For a prime budget of k repetitions and exponent r > 1, the range of the
restricted divisor sum is dense in [1, G_k(r)) exactly when the statistic

    T_k(m, r) = log(1 + p_m^{-r}) - sum_{i>m} log(local factor at p_i)

is <= 0 for every m; for r in (1, 2] it suffices to test m in {1, 2, 4}.
k may be math.inf, the unrestricted sum: its local factor at p is
1/(1 - p^-r) and G_inf(r) = zeta(r).  A positive T at some m certifies
a forbidden open interval in the log range.  T and that interval have
one interval route, :func:`t_levels`, shared by :func:`t_func`,
:func:`density_report` and ``explorer.analytic_gap_scan``.  The solver's
sign tests first read the sign of T from a log-free comparison of
products (:func:`t_sign`), and where that is undecided take the sign of
the printed full-size T bracket.  Both run on ``mpmath.libmp`` interval
tuples: the printed route at ``FULL_SIZE.prec``, the product test at
``SIGN_SIZE.prec``.  Each p^-r and p^-(k+1)r with p <= N comes from the
table that the evaluation of zeta(r) or zeta((k+1)r) returns
(``zeta.zeta_iv``), so T's cost does not grow with k; a prime beyond N
takes exp(-s log p) with log p taken once per prime (``zeta.prime_power``).
Everything here returns certified brackets, and verdicts are three-valued
(dense / not_dense / undetermined) so float artifacts can never silently
misclassify a near-threshold input.  The standing inequalities and the
monotonicity of T in r are proved by one cell cover (:func:`_cover`), on
interval tuples at ``FULL_SIZE.prec``, with each prime power taken once
per cell end and ``check_*`` call (:func:`_power_table`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cache, partial

from mpmath import fp
from mpmath.libmp import (
    from_float,
    from_int,
    ftwo,
    fzero,
    mpf_mul,
    mpi_add,
    mpi_div,
    mpi_log,
    mpi_mul,
    mpi_neg,
    mpi_pow_int,
    mpi_sub,
)

from .brackets import Bracket
from .errors import check_k, check_r
from .primes import PrimeTable
from .zeta import FULL_SIZE, ONE, SIGN_SIZE, log_g_iv, log_prime, prime_power, scale, to_iv, zeta_iv

# The levels m of the criterion's test for r in (1, 2].
LEVELS = (1, 2, 4)
# The range on which T_k(m, .) for m in LEVELS and J_m are proved
# increasing by :func:`check_monotonicity`; it holds the solver's bracket
# [1.0001, 2].
R_MONOTONE_LO = 1.0001
R_MONOTONE_HI = 7.0 / 3.0

# Most cells :func:`_cover` evaluates for one claim; a claim not proved
# by then is reported failed.  A cell costs at most one zeta evaluation.
COVER_MAX_CELLS = 256


def _check_kmr(k: int | float, m: int, r: float) -> None:
    check_k(k)
    check_k(m, "m", infinite=False)
    check_r(r)


def _power(p: int, minus_r: tuple, powers: list, prec: int) -> tuple:
    """p^-r: the entry of ``powers``, a zeta evaluation's table of n^-r,
    where that holds p, else exp(-r log p)."""
    return powers[p] if p < len(powers) else prime_power(p, minus_r, prec)


def t_levels(
    table: PrimeTable, k: int | float, r: tuple, log_g: tuple[tuple, list, list | None], ms: Iterable[int]
) -> Iterator[tuple[int, Bracket, tuple[float, float] | None]]:
    """T_k(m, r) = log(1 + p_m^{-r}) - sum_{i>m} log(local factor at p_i)
    for each m of the strictly ascending ``ms``, on interval tuples at
    FULL_SIZE.prec.  The tail is log G_k(r) minus the prefix sum_{i<=m} of
    the log local factor at p_i, log((1 - x^{k+1})/(1 - x)), or
    log(1/(1 - x)) at k = inf, with x = p_i^-r.  ``log_g`` is what
    ``zeta.log_g_iv(k, r)`` returns: the interval of log G_k(r) and the
    tables of zeta(r) and zeta((k+1)r), which x and x^{k+1} are read from
    (by :func:`_power`), so the cost does not grow with k.

    Yields (m, T bracket, gap), where gap is the certified forbidden core
    at level m, the doubles (log G_k(r) - prefix rounded up,
    log(1 + p_m^-r) rounded down), when T is certified positive and None
    otherwise.  The prefix is carried from one level to the next, and the
    head reuses the p_m^-r its last term took, so a scan over m = 1..M
    costs M local factors and no zeta evaluation.
    """
    prec = FULL_SIZE.prec
    log_g, powers, powers_k = log_g
    minus_r = mpi_neg(r, prec)
    if powers_k is not None:
        minus_kr = mpi_neg(scale(k + 1, r, prec), prec)
    prefix = fzero, fzero
    done = 0
    for m in ms:
        for i in range(done + 1, m + 1):
            p = table.nth(i)
            x = _power(p, minus_r, powers, prec)
            kept = ONE if powers_k is None else mpi_sub(ONE, _power(p, minus_kr, powers_k, prec), prec)
            local = mpi_div(kept, mpi_sub(ONE, x, prec), prec)
            prefix = mpi_add(prefix, mpi_log(local, prec), prec)
        done = m
        head = mpi_log(mpi_add(ONE, x, prec), prec)
        t = Bracket.from_iv(mpi_add(mpi_sub(head, log_g, prec), prefix, prec))
        gap = None
        if t.strictly_positive():
            gap = Bracket.from_iv(mpi_sub(log_g, prefix, prec)).hi, Bracket.from_iv(head).lo
        yield m, t, gap


def t_func(table: PrimeTable, k: int | float, m: int, r: float) -> Bracket:
    """T_k(m, r), the one level m of :func:`t_levels`."""
    _check_kmr(k, m, r)
    r_iv = to_iv(r)
    ((_, t, _),) = t_levels(table, k, r_iv, log_g_iv(k, r_iv), (m,))
    return t


def _euler_prefix(table: PrimeTable, m: int, minus_s: tuple, powers: list, prec: int) -> tuple:
    """prod_{i<=m} (1 - p_i^-s), each p_i^-s read from ``powers``, the table
    of zeta(s)'s evaluation, where that holds it."""
    product = ONE
    for i in range(1, m + 1):
        x = _power(table.nth(i), minus_s, powers, prec)
        product = mpi_mul(product, mpi_sub(ONE, x, prec), prec)
    return product


def t_sign(table: PrimeTable, k: int | float, m: int, r: float) -> int | None:
    """The certified sign of T_k(m, r), with zeta at SIGN_SIZE, or None
    where it is not decided.  exp(T) is a ratio of products, so

        T > 0  <=>  (1 + x_m) zeta((k+1)r) prod_{i<=m} (1 - x_i^{k+1})
                        > zeta(r) prod_{i<=m} (1 - x_i),   x_i = p_i^-r,

    and the test takes no log.  x_i and x_i^{k+1} are the entries for p_i
    of the tables of zeta(r) and zeta((k+1)r), at SIGN_SIZE.prec.
    At k = inf, x_i^{k+1} = 0 and zeta((k+1)r) = 1."""
    _check_kmr(k, m, r)
    prec = SIGN_SIZE.prec
    r_iv = to_iv(r)
    minus_r = mpi_neg(r_iv, prec)
    zeta_r, powers = zeta_iv(r_iv, SIGN_SIZE)
    dropped = _euler_prefix(table, m, minus_r, powers, prec)
    if k == math.inf:
        zeta_kr = kept = ONE
    else:
        kr = scale(k + 1, r_iv, prec)
        zeta_kr, powers_k = zeta_iv(kr, SIGN_SIZE)
        kept = _euler_prefix(table, m, mpi_neg(kr, prec), powers_k, prec)
    x = _power(table.nth(m), minus_r, powers, prec)
    lhs = mpi_mul(mpi_mul(mpi_add(ONE, x, prec), zeta_kr, prec), kept, prec)
    difference = mpi_sub(lhs, mpi_mul(zeta_r, dropped, prec), prec)
    return Bracket.from_iv(difference).certified_sign()


def _power_table():
    """A table of the ends of prime powers for one ``check_*`` call:
    ``power(p, j, a, b)`` is the interval p^(j r) over the cell r in
    [a, b], for a prime p, an integer j != 0 and doubles a <= b.  Each end
    is an end of ``zeta.prime_power`` at one end of the cell, at
    FULL_SIZE.prec: its lower end at b and its upper end at a for j < 0,
    the other way round for j > 0.  One power, one exp, is taken per
    (p, j, end of a cell) and table: a cell shares two of its four power
    ends with its parent, and the claims on one range share their grid
    points."""
    prec = FULL_SIZE.prec

    @cache
    def at(p: int, j: int, x: float) -> tuple:
        y = mpf_mul(from_int(j), from_float(x))
        return prime_power(p, (y, y), prec)

    def power(p: int, j: int, a: float, b: float) -> tuple:
        if j < 0:
            a, b = b, a
        return at(p, j, a)[0], at(p, j, b)[1]

    return power


TWO = ftwo, ftwo


def _log_over(p: int, q: tuple) -> tuple:
    """log p / (q + 1) at q = p^x, decreasing in x."""
    prec = FULL_SIZE.prec
    return mpi_div(log_prime(p, prec), mpi_add(q, ONE, prec), prec)


def _log_sq_over(p: int, q: tuple) -> tuple:
    """(log p)^2 / (q + 2 + 1/q) at q = p^x, minus the derivative of
    :func:`_log_over`; decreasing in x > 0."""
    prec = FULL_SIZE.prec
    denominator = mpi_add(mpi_add(q, TWO, prec), mpi_div(ONE, q, prec), prec)
    return mpi_div(mpi_pow_int(log_prime(p, prec), 2, prec), denominator, prec)


def _rise(table: PrimeTable, power, m: int, n: int, term, a: float, b: float) -> tuple:
    """A lower bound on sum_{i=m+1}^{m+n} term(p_i, .) - term(p_m, .) over
    the cell [a, b], for a ``term`` of p and q = p^x decreasing in x: each
    term is taken at the end of the cell where it is smallest, with p^x
    from ``power``, a :func:`_power_table`.  Exact for a point cell."""
    prec = FULL_SIZE.prec
    rest = fzero, fzero
    for i in range(m + 1, m + n + 1):
        p = table.nth(i)
        rest = mpi_add(rest, term(p, power(p, 1, b, b)), prec)
    p = table.nth(m)
    return mpi_sub(rest, term(p, power(p, 1, a, a)), prec)


def t_float(table: PrimeTable, k: int | float, m: int, r: float) -> float:
    """T_k(m, r) in plain double precision, from ``mpmath.fp.zeta``.

    Not a certified quantity: the solver walks its bisection path with
    this estimate and certifies the path's endpoints with :func:`t_func`.
    Every term is a log of size at most 10 computed to a few ulps, so the
    estimate is within 2e-15 of T on [1.0001, 2].
    """
    _check_kmr(k, m, r)
    k = min(k, 2**53)  # from here zeta((k+1)r) = 1 and x**k = 0 in doubles, as at k = inf
    log_g = math.log(fp.zeta(r)) - math.log(fp.zeta((k + 1) * r))
    prefix = 0.0
    for i in range(1, m + 1):
        x = float(table.nth(i)) ** (-r)
        prefix += math.log1p(x * (1.0 - x**k) / (1.0 - x))
    return math.log1p(float(table.nth(m)) ** (-r)) - log_g + prefix


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
    Analysis*, ch. 5): ``claim`` maps the ends a <= b of a cell, two
    doubles, to an interval tuple enclosing the claim's values there.  A cell whose lower bound is > 0
    is accepted; any other cell is bisected.  Returns the cells accepted,
    the lowest lower bound (rounded down to a double), and whether the
    claim is proved.  It is not when COVER_MAX_CELLS cells have been
    evaluated, or when a cell too narrow to bisect is not accepted."""
    accepted, evaluated, lowest = 0, 0, math.inf
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        evaluated += 1
        lower = Bracket.from_iv(claim(a, b)).lo
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
    power end is taken once per call (:func:`_power_table`).

    Failures are reported findings, never exceptions.
    """
    prec = FULL_SIZE.prec
    power = _power_table()
    add, sub, mul, div = (partial(f, prec=prec) for f in (mpi_add, mpi_sub, mpi_mul, mpi_div))

    def two_vs_three_lower(a, b):
        x3 = power(3, -1, a, b)
        lhs = mul(add(ONE, x3), add(add(ONE, x3), power(3, -2, a, b)))
        return sub(lhs, add(ONE, power(2, -1, a, b)))

    def three_vs_five_seven(a, b):
        x7 = power(7, -1, a, b)
        rhs = div(div(add(ONE, x7), sub(ONE, x7)), sub(ONE, power(5, -1, a, b)))
        return sub(add(ONE, power(3, -1, a, b)), rhs)

    def pair_product_m2(a, b):
        x3 = power(3, -1, a, b)
        return sub(div(add(ONE, power(2, -1, a, b)), add(ONE, x3)), add(ONE, x3))

    def pair_product_m4(a, b):
        x7 = power(7, -1, a, b)
        dropped = mul(mul(add(ONE, power(3, -1, a, b)), add(ONE, power(5, -1, a, b))), add(ONE, x7))
        return sub(div(add(ONE, power(2, -1, a, b)), dropped), add(ONE, x7))

    def square_dominates_zeta(a, b):
        zeta_r, powers = zeta_iv((from_float(a), from_float(b)))
        return sub(mpi_pow_int(add(ONE, powers[2]), 2, prec), zeta_r)

    return InequalityReport(
        checks=(
            _check(
                "two_vs_three_lower",
                "(1+3^-r)(1+3^-r+3^-2r) - (1+2^-r) > 0",
                1.67,
                1.98,
                two_vs_three_lower,
            ),
            _check(
                "three_vs_five_seven",
                "(1+3^-r) - (5^r/(5^r-1))((7^r+1)/(7^r-1)) > 0",
                1.67,
                1.98,
                three_vs_five_seven,
            ),
            _check(
                "pair_product_m2",
                "(1+2^-r)(3^r/(3^r+1)) - (1+3^-r) > 0",
                1.8638,
                2.0,
                pair_product_m2,
            ),
            _check(
                "pair_product_m4",
                "(1+2^-r)(3^r/(3^r+1))(5^r/(5^r+1))(7^r/(7^r+1)) - (1+7^-r) > 0",
                1.8638,
                2.0,
                pair_product_m4,
            ),
            _check(
                "square_dominates_zeta",
                "(1+2^-r)^2 - zeta(r) > 0",
                R_MONOTONE_HI,
                3.0,
                square_dominates_zeta,
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
      w_i = 1 / (p_i^r + 1), leaves a bound that holds for every k.  It
      covers T_inf(m, .) for m in {1, 2, 4} too, whose weights
      w_i = 1 / (p_i^r - 1) exceed 1 / (p_i^r + 1); T_inf(2, .) is the
      limit equation of ``solver.eta_limit``.
    * J_m(x) = log p_m / (p_m^x + 1) minus the same expression summed over
      the next six primes is increasing: J_m' is the same difference of
      (log p)^2 / (p^x + 2 + p^-x), each decreasing in x.
    * J_m(7/3) < 0.

    Every p^x is read from one :func:`_power_table` for the call.
    """
    lo, hi = R_MONOTONE_LO, R_MONOTONE_HI
    power = _power_table()
    checks = []
    for m in LEVELS:
        t_slope = partial(_rise, table, power, m, 10, _log_over)
        j_slope = partial(_rise, table, power, m, 6, _log_sq_over)
        minus_j = partial(_rise, table, power, m, 6, _log_over)
        checks += [
            _check(f"t_increasing_m{m}", f"dT_k({m}, r)/dr > 0 for every k", lo, hi, t_slope),
            _check(f"j_increasing_m{m}", f"J_{m}'(x) > 0", lo, hi, j_slope),
            _check(f"j_negative_m{m}", f"J_{m}(7/3) < 0", hi, hi, minus_j),
        ]
    return InequalityReport(checks=tuple(checks))


# The signs :func:`check_selector` certifies, as (k, m, r, side): each is
# the claim side * T_k(m, r) > 0.
SELECTOR_SIGNS = (
    (math.inf, 2, 1.9, 1),
    (2, 1, 1.9, -1),
    (1, 4, 2.0, -1),
    (1, 1, 1.865, 1),
    (1, 2, 1.865, -1),
)


def _signed_t(table: PrimeTable, k: int | float, m: int, side: int):
    """The claim side * T_k(m, .) > 0 for :func:`_cover`: T over the cell
    by :func:`t_levels`, negated where ``side`` is -1."""

    def claim(a: float, b: float) -> tuple:
        r = from_float(a), from_float(b)
        ((_, t, _),) = t_levels(table, k, r, log_g_iv(k, r), (m,))
        lo, hi = (t.lo, t.hi) if side > 0 else (-t.hi, -t.lo)
        return from_float(lo), from_float(hi)

    return claim


def check_selector(table: PrimeTable) -> InequalityReport:
    """Proof of the rule of ``solver.m_selector`` for every k, k = inf
    included: m_k, the m in {1, 2, 4} of the least root R_k(m) of
    T_k(m, .) in (1, 2), or 2 where T_k(m, .) < 0 on all of it, is 1 for
    k = 1 and 2 for k >= 2.  Each claim of SELECTOR_SIGNS is one certified
    sign, a cell r_lo = r_hi.  The lemma:

    (a) LF_{k+1}(p) > LF_k(p) for every prime, and LF_inf(p) exceeds both,
        so T_k(m, .) decreases in k and R_k(m) does not: R_2(m) <= R_k(m)
        <= R_inf(m) for k >= 2.
    (b) T_k(m, .) is increasing for m in {1, 2, 4} and every k
        (``t_increasing_m*`` of :func:`check_monotonicity`), so a sign at
        one point puts the root on one side of it.
    (c) T_inf(2, 1.9) > 0 and T_2(1, 1.9) < 0: R_k(2) <= eta_inf < 1.9 <
        R_2(1) <= R_k(1) for every k >= 2.
    (d) T_1(4, 2) < 0: T_k(4, 2) < 0 for every k, so R_k(4) = 2 > 1.9.
    (e) T_1(1, 1.865) > 0 and T_1(2, 1.865) < 0: R_1(1) < 1.865 < R_1(2),
        and R_1(2) < 1.9 < R_1(4) by (c) and (d).  ``pair_product_m2`` of
        :func:`check_inequalities`, T_1(1, .) > T_1(2, .) on [1.8638, 2],
        is a second route to R_1(1) < R_1(2).

    So m_k = 2 for k >= 2 and m_1 = 1, and no eta_k rests on a check of
    its own k.
    """
    checks = []
    for k, m, r, side in SELECTOR_SIGNS:
        sign, relation = ("positive", ">") if side > 0 else ("negative", "<")
        name, description = f"t{k}_m{m}_{sign}", f"T_{k}({m}, {r}) {relation} 0"
        checks.append(_check(name, description, r, r, _signed_t(table, k, m, side)))
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
    per_m = {m: t for m, t, _ in t_levels(table, k, r_iv, log_g, LEVELS)}
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
        log_g=Bracket.from_iv(log_g[0]),
        verdict=verdict,
        undetermined_width=width,
    )
