"""Density criterion machinery.

For a prime budget of k repetitions and exponent r > 1, the range of the
restricted divisor sum is dense in [1, G_k(r)) exactly when the statistic

    T_k(m, r) = log(1 + p_m^{-r}) - sum_{i>m} log LF_k(p_i),

LF_k(p) = (1 - p^-(k+1)r)/(1 - p^-r) being the local factor of
G_k(r) = zeta(r)/zeta((k+1)r), is <= 0 for every m; for r in (1, 2] it
suffices to test m in {1, 2, 4}.  k may be math.inf, the unrestricted
sum: LF_inf(p) = 1/(1 - p^-r) and G_inf(r) = zeta(r).  A positive T at
some m certifies a forbidden open interval in the log range.  Every
LF_k(p_i) comes from one generator, :func:`_local_factors`.  T and that
interval have one interval route, :func:`t_levels`, which sums the
factors' logs.  :func:`t_at` takes its one level m over an interval r,
for :func:`t_func`, the selector's cover claims and the solver's printed
values; :func:`density_report` reads m in {1, 2, 4} and
``explorer.analytic_gap_scan`` the gaps of 1..M.  The solver's sign
tests first multiply the same factors, with no log (:func:`t_sign`), and
where that is undecided take the sign of the printed full-size T
bracket.  Both run on the kernel's pairs of integers, with ``zeta``'s
four pair helpers and its integer log: the printed route in units of
2^-FULL_SIZE.unit, the sign test in units of 2^-SIGN_SIZE.unit.  Each
p^-r and p^-(k+1)r with p <= N comes from the table that the evaluation
of zeta(r) or zeta((k+1)r) returns (``zeta.zeta_iv``), so T's cost does
not grow with k; a prime beyond N takes exp(-s log p) with log p taken
once per prime (``zeta.prime_power``).
Everything here returns certified brackets, and verdicts are three-valued
(dense / not_dense / undetermined) so float artifacts can never silently
misclassify a near-threshold input.  The standing inequalities and the
monotonicity of T in r are proved by one cell cover (:func:`_cover`), on
pairs in units of 2^-FULL_SIZE.unit, with each prime power taken once
per cell end and ``check_*`` call (:func:`_power_table`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cache, partial
from itertools import count, islice

from mpmath import fp

from .brackets import Bracket
from .errors import check_k, check_r
from .primes import PrimeTable
from .zeta import FULL_SIZE, SIGN_SIZE, KernelSize, exponent, log_g_iv, log_iv, log_units, prime_power
from .zeta import add, div, mul, sub, zeta_iv

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

# The unit of the printed route and of the cover, 2^-UNIT, with 1 and 2 in it.
UNIT = FULL_SIZE.unit
ONE = 1 << UNIT, 1 << UNIT
TWO = 2 << UNIT, 2 << UNIT


def _check_kmr(k: int | float, m: int, r: float) -> None:
    check_k(k)
    check_k(m, "m", infinite=False)
    check_r(r)


def _local_factors(
    table: PrimeTable, k: int | float, r: tuple, powers: list, powers_k: list | None, size: KernelSize
) -> Iterator[tuple[tuple, tuple]]:
    """(x_i, LF_k(p_i)) for i = 1, 2, ... as pairs in units of
    2^-size.unit, over the exponent pair r: x_i = p_i^-r and LF_k(p_i) =
    (1 - x_i^{k+1})/(1 - x_i), or 1/(1 - x_i) where ``powers_k`` is None
    (k = inf).  x_i and x_i^{k+1} are the entries for p_i of ``powers``
    and ``powers_k``, the tables of zeta(r) and zeta((k+1)r), where they
    hold p_i, else exp(-s log p_i) (``zeta.prime_power``), so the cost
    does not grow with k."""
    unit = size.unit
    one = 1 << unit, 1 << unit
    minus_r = -r[1], -r[0]
    if powers_k is not None:
        minus_kr = -(k + 1) * r[1], -(k + 1) * r[0]
    for i in count(1):
        p = table.nth(i)
        x = powers[p] if p < len(powers) else prime_power(p, minus_r, size)
        kept = one
        if powers_k is not None:
            kept = sub(one, powers_k[p] if p < len(powers_k) else prime_power(p, minus_kr, size))
        yield x, div(kept, sub(one, x), unit)


def t_levels(
    table: PrimeTable, k: int | float, r: tuple, log_g: tuple[tuple, list, list | None], ms: Iterable[int]
) -> Iterator[tuple[int, Bracket, tuple[float, float] | None]]:
    """T_k(m, r) = log(1 + p_m^{-r}) - sum_{i>m} log LF_k(p_i) for each m
    of the strictly ascending ``ms``, over the exponent pair r, on pairs in
    units of 2^-UNIT, every log ``zeta.log_iv``.
    The tail is log G_k(r) minus the prefix sum_{i<=m} log LF_k(p_i), the
    logs of the factors that :func:`_local_factors` yields.  ``log_g`` is
    what ``zeta.log_g_iv(k, r)`` returns: the interval of log G_k(r) and
    the tables of zeta(r) and zeta((k+1)r) that the factors read.

    Yields (m, T bracket, gap), where gap is the certified forbidden core
    at level m, the doubles (log G_k(r) - prefix rounded up,
    log(1 + p_m^-r) rounded down), when T is certified positive and None
    otherwise.  The prefix is carried from one level to the next, and the
    head reuses the p_m^-r its last factor took, so a scan over m = 1..M
    costs M local factors and no zeta evaluation.
    """
    log_g, powers, powers_k = log_g
    factors = _local_factors(table, k, r, powers, powers_k, FULL_SIZE)
    prefix = 0, 0
    done = 0
    for m in ms:
        for x, local in islice(factors, m - done):
            prefix = add(prefix, log_iv(local, UNIT))
        done = m
        head = log_iv(add(ONE, x), UNIT)
        t = Bracket.from_units(*add(sub(head, log_g), prefix), UNIT)
        gap = None
        if t.strictly_positive():
            gap = Bracket.from_units(*sub(log_g, prefix), UNIT).hi, Bracket.from_units(*head, UNIT).lo
        yield m, t, gap


def t_at(table: PrimeTable, k: int | float, m: int, r: tuple[int, int]) -> Bracket:
    """T_k(m, r) over the exponent pair r, the one level m of
    :func:`t_levels`, with log G_k(r) from ``log_g_iv``.  Its arguments
    are not checked."""
    ((_, t, _),) = t_levels(table, k, r, log_g_iv(k, r), (m,))
    return t


def t_func(table: PrimeTable, k: int | float, m: int, r: float) -> Bracket:
    """T_k(m, r) at the double r, by :func:`t_at`."""
    _check_kmr(k, m, r)
    return t_at(table, k, m, exponent(r))


def t_sign(table: PrimeTable, k: int | float, m: int, r: float) -> int | None:
    """The certified sign of T_k(m, r), with zeta at SIGN_SIZE, or None
    where it is not decided.  With x_i = p_i^-r,

        T > 0  <=>  (1 + x_m) zeta((k+1)r) prod_{i<=m} LF_k(p_i) > zeta(r),

    a test with no log, on the factors of :func:`_local_factors`
    (zeta((k+1)r) = 1 at k = inf), in units of 2^-SIGN_SIZE.unit, the
    zeta values' own."""
    _check_kmr(k, m, r)
    unit = SIGN_SIZE.unit
    one = 1 << unit, 1 << unit
    lo, hi = s = exponent(r)
    zeta_r, powers = zeta_iv(s, SIGN_SIZE)
    product, powers_k = (one, None) if k == math.inf else zeta_iv(((k + 1) * lo, (k + 1) * hi), SIGN_SIZE)
    for x, local in islice(_local_factors(table, k, s, powers, powers_k, SIGN_SIZE), m):
        product = mul(product, local, unit)
    difference = sub(mul(add(one, x), product, unit), zeta_r)
    return Bracket.from_units(*difference, unit).certified_sign()


def _power_table():
    """A table of the ends of prime powers for one ``check_*`` call:
    ``power(p, j, a, b)`` is the pair p^(j r) over the cell r in [a, b],
    for a prime p, an integer j != 0 and doubles 1 <= a <= b.  Each end is
    an end of ``zeta.prime_power`` at one end of the cell, at FULL_SIZE:
    its lower end at b and its upper end at a for j < 0,
    the other way round for j > 0.  One power, one exp, is taken per
    (p, j, end of a cell) and table: a cell shares two of its four power
    ends with its parent, and the claims on one range share their grid
    points."""
    @cache
    def at(p: int, j: int, x: float) -> tuple[int, int]:
        y = j * exponent(x)[0]
        return prime_power(p, (y, y), FULL_SIZE)

    def power(p: int, j: int, a: float, b: float) -> tuple:
        if j < 0:
            a, b = b, a
        return at(p, j, a)[0], at(p, j, b)[1]

    return power


def _log_over(p: int, q: tuple[int, int]) -> tuple[int, int]:
    """log p / (q + 1) at q = p^x, decreasing in x."""
    return div(log_units(p, UNIT), add(q, ONE), UNIT)


def _log_sq_over(p: int, q: tuple[int, int]) -> tuple[int, int]:
    """(log p)^2 / (q + 2 + 1/q) at q = p^x, minus the derivative of
    :func:`_log_over`; decreasing in x > 0."""
    log_p = log_units(p, UNIT)
    denominator = add(add(q, TWO), div(ONE, q, UNIT))
    return div(mul(log_p, log_p, UNIT), denominator, UNIT)


def _rise(table: PrimeTable, power, m: int, n: int, term, a: float, b: float) -> tuple[int, int]:
    """A lower bound on sum_{i=m+1}^{m+n} term(p_i, .) - term(p_m, .) over
    the cell [a, b], for a ``term`` of p and q = p^x decreasing in x: each
    term is taken at the end of the cell where it is smallest, with p^x
    from ``power``, a :func:`_power_table`.  Exact for a point cell."""
    rest = 0, 0
    for i in range(m + 1, m + n + 1):
        p = table.nth(i)
        rest = add(rest, term(p, power(p, 1, b, b)))
    p = table.nth(m)
    return sub(rest, term(p, power(p, 1, a, a)))


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
    doubles, to a pair in units of 2^-UNIT enclosing the claim's values
    there.  A cell whose lower bound is > 0 is accepted; any other cell
    is bisected.  Returns the cells accepted,
    the lowest lower bound (rounded down to a double), and whether the
    claim is proved.  It is not when COVER_MAX_CELLS cells have been
    evaluated, or when a cell too narrow to bisect is not accepted."""
    accepted, evaluated, lowest = 0, 0, math.inf
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        evaluated += 1
        lower = Bracket.from_units(*claim(a, b), UNIT).lo
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
    power = _power_table()
    times, over = (partial(f, unit=UNIT) for f in (mul, div))

    def two_vs_three_lower(a, b):
        x3 = power(3, -1, a, b)
        lhs = times(add(ONE, x3), add(add(ONE, x3), power(3, -2, a, b)))
        return sub(lhs, add(ONE, power(2, -1, a, b)))

    def three_vs_five_seven(a, b):
        x7 = power(7, -1, a, b)
        rhs = over(over(add(ONE, x7), sub(ONE, x7)), sub(ONE, power(5, -1, a, b)))
        return sub(add(ONE, power(3, -1, a, b)), rhs)

    def pair_product_m2(a, b):
        x3 = power(3, -1, a, b)
        return sub(over(add(ONE, power(2, -1, a, b)), add(ONE, x3)), add(ONE, x3))

    def pair_product_m4(a, b):
        x7 = power(7, -1, a, b)
        dropped = times(times(add(ONE, power(3, -1, a, b)), add(ONE, power(5, -1, a, b))), add(ONE, x7))
        return sub(over(add(ONE, power(2, -1, a, b)), dropped), add(ONE, x7))

    def square_dominates_zeta(a, b):
        zeta_r, powers = zeta_iv(exponent(a, b))
        base = add(ONE, powers[2])
        return sub(times(base, base), zeta_r)

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
    """The claim side * T_k(m, .) > 0 for :func:`_cover`: the bracket of
    T over the cell by :func:`t_at`, negated where ``side`` is -1, its
    doubles rounded outward to the unit (exact where |T| >= 2^-164)."""

    def claim(a: float, b: float) -> tuple[int, int]:
        t = t_at(table, k, m, exponent(a, b))
        lo, hi = (t.lo, t.hi) if side > 0 else (-t.hi, -t.lo)
        return math.floor(math.ldexp(lo, UNIT)), math.ceil(math.ldexp(hi, UNIT))

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
    s = exponent(r)
    log_g = log_g_iv(k, s)
    per_m = {m: t for m, t, _ in t_levels(table, k, s, log_g, LEVELS)}
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
        log_g=Bracket.from_units(*log_g[0], UNIT),
        verdict=verdict,
        undetermined_width=width,
    )
