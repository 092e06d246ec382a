"""Certified root solving for the density thresholds.

Every threshold is the unique root in (1, 2) of a function that is
strictly increasing there (``density.check_monotonicity`` proves it for
T_k(m, .), m in {1, 2, 4}, at every k), found by bisection: each
returned bracket has certified opposite signs at its endpoints, or
carries an explicit boundary flag for the "no root, threshold = 2" case.

A certified sign test costs an interval evaluation of zeta (milliseconds),
so the bisection walks its path with a float64 estimate of the same
function, its guide (microseconds), and certifies only the endpoints it
reaches: the a-posteriori verification pattern of Rump, "Verification
methods" (Acta Numerica 2010).  Because the function is increasing,
certified endpoints make the guided path the certified path, so guided
and certified-only solves return the same bits.  The certified-only
walk remains the fallback and the tests' reference.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from mpmath import fp, iv

from .brackets import PRECISION_FLOOR, Bracket, check_eps
from .density import t_float, t_func, t_levels, v_func
from .errors import CapacityError, DomainError, PrecisionError, check_k
from .primes import PrimeTable
from .zeta import iv_pow, log_g_iv, to_iv, zeta_iv

DEFAULT_EPS = 1e-10
LIMIT_EPS = 1e-9

# Largest k_max of :func:`eta_table`; a row costs about 70 ms at any k.
ETA_TABLE_MAX_K = 100

# Every target diverges to -inf at 1+, so its sign is certified negative
# here; a solve whose sign is not certified at this start fails loudly.
_START = 1.0001

# The guides stay within 2e-15 of their certified functions on [1.0001, 2]
# (mpmath.fp.zeta is within 2e-16 relative of the 200-bit zeta there, and
# each function is a few logs of size at most 10).  A guide's sign is
# taken only where it clears this bound, a margin of 50, and a certified
# test decides inside it.  The bound sets how many midpoints are
# certified, never soundness: the endpoints are certified afterwards.
GUIDE_ERROR = 1e-13


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


def _walk(
    sign: Callable[[float], int | None], a: float, b: float, eps: float
) -> tuple[float, float, int]:
    """Bisect [a, b] down to width ``eps`` by the signs of ``sign``;
    returns the final bracket and the number of steps."""
    steps = 0
    while b - a > eps:
        mid = a + (b - a) * 0.5
        s = sign(mid)
        if s is None:
            raise PrecisionError(
                f"sign evaluation indeterminate at r = {mid} in [{a}, {b}]; "
                "the requested tolerance is below the certification floor"
            )
        if s < 0:
            a = mid
        else:
            b = mid
        steps += 1
    return a, b, steps


def _guided_walk(
    sign_fn: Callable[[float], Bracket],
    guide: Callable[[float], float],
    a: float,
    b: float,
    eps: float,
) -> tuple[float, float, int] | None:
    """The walk of :func:`_walk` with the guide's sign wherever
    |guide| > GUIDE_ERROR and a certified test elsewhere, then a certified
    test at each endpoint the walk moved.  None when the guide is NaN, an
    in-band test is indeterminate, or an endpoint fails its test."""
    signs: dict[float, int | None] = {}

    def certified(r: float) -> int | None:
        if r not in signs:
            signs[r] = sign_fn(r).certified_sign()
        return signs[r]

    def sign(r: float) -> int | None:
        g = guide(r)
        if abs(g) > GUIDE_ERROR:
            return 1 if g > 0 else -1
        return None if math.isnan(g) else certified(r)

    try:
        lo, hi, steps = _walk(sign, a, b, eps)
    except PrecisionError:
        return None
    if (lo == a or certified(lo) == -1) and (hi == b or certified(hi) == 1):
        return lo, hi, steps
    return None


def _bisect(
    sign_fn: Callable[[float], Bracket],
    root: RootResult,
    eps: float,
    guide: Callable[[float], float] | None = None,
) -> RootResult:
    """Continue the bisection of ``root`` on the strictly increasing
    ``sign_fn`` until its bracket is at most ``eps`` wide.

    ``guide`` is a float estimate of ``sign_fn`` (see :func:`_guided_walk`).
    Certified signs at the guided walk's endpoints put the root between
    them, so every midpoint before went to the root's side, as a
    certified test would have sent it: the guided walk is the certified
    walk.  When the endpoints are not certified, the walk is redone with a
    certified test at every midpoint.

    Bisection is deterministic, so refining a bracket solved at a coarser
    eps gives bit-for-bit the bracket a fresh solve at ``eps`` would.
    """
    a, b = root.value.lo, root.value.hi
    walked = None if guide is None else _guided_walk(sign_fn, guide, a, b, eps)
    if walked is None:
        walked = _walk(lambda r: sign_fn(r).certified_sign(), a, b, eps)
    a, b, steps = walked
    return dataclasses.replace(
        root,
        value=Bracket(a, b),
        iterations=root.iterations + steps,
        residual=sign_fn(0.5 * (a + b)),
    )


def _solve(
    sign_fn: Callable[[float], Bracket],
    at_two: Bracket,
    eps: float,
    method: str,
    guide: Callable[[float], float] | None = None,
) -> RootResult:
    """The root in (1, 2) of a strictly increasing ``sign_fn`` whose sign
    at 2 is ``at_two``, by bisection from [_START, 2]."""
    if not at_two.strictly_positive():
        raise PrecisionError(f"{method}: sign not certified positive at r = 2")
    if sign_fn(_START).certified_sign() != -1:
        raise PrecisionError(f"{method}: sign not certified negative at r = {_START}")
    start = RootResult(value=Bracket(_START, 2.0), iterations=0, residual=at_two, method=method)
    return _bisect(sign_fn, start, eps, guide)


def r_threshold(table: PrimeTable, k: int, m: int, eps: float = DEFAULT_EPS) -> RootResult:
    """The unique root of T_k(m, .) in (1, 2), or the boundary value 2
    when T_k(m, .) stays negative on the whole interval."""
    check_k(k)
    if m not in (1, 2, 4):
        raise DomainError(f"m must be one of 1, 2, 4, got {m}")
    check_eps(eps)
    sign_fn = partial(t_func, table, k, m)
    at_two = sign_fn(2.0)
    if at_two.nonpositive():
        return RootResult(
            value=Bracket.exact(2.0),
            iterations=0,
            residual=at_two,
            method="boundary (no sign change on (1, 2))",
            boundary=True,
        )
    return _solve(sign_fn, at_two, eps, "bisection on T", partial(t_float, table, k, m))


def _refine(table: PrimeTable, k: int, m: int, root: RootResult, eps: float) -> RootResult:
    """A root of T_k(m, .) bisected on to ``eps`` (see :func:`_bisect`)."""
    return _bisect(partial(t_func, table, k, m), root, eps, partial(t_float, table, k, m))


def m_selector(table: PrimeTable, k: int) -> int:
    """The smallest m in {1, 2, 4} whose threshold attains the minimum."""
    check_k(k)
    roots = {m: r_threshold(table, k, m, DEFAULT_EPS) for m in (1, 2, 4)}
    return select_m(table, k, roots, DEFAULT_EPS)


def select_m(table: PrimeTable, k: int, roots: dict[int, RootResult], eps: float) -> int:
    """The selector from thresholds already solved at ``eps``.

    While the winner has not separated from the rest, the brackets held
    are refined at eps/100 per round, down to the precision floor; a tie
    that persists there raises with the tied candidates.  Equal
    boundaries tie to the smallest m.
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
        if not tied:
            return best
        if eps <= PRECISION_FLOOR:
            raise PrecisionError(
                f"threshold brackets for m={sorted([best] + tied)} remain "
                "unseparated at the precision floor"
            )
        eps = max(eps / 100, PRECISION_FLOOR)
        roots = {m: _refine(table, k, m, roots[m], eps) for m in (1, 2, 4)}


def _m_k(k: int) -> int:
    """The level whose threshold is eta_k: 1 for k = 1, 2 for k >= 2."""
    return 1 if k == 1 else 2


def eta(table: PrimeTable, k: int, eps: float = DEFAULT_EPS) -> RootResult:
    """The density threshold eta_k: the root of T_k(m_k, .) in (1, 2).

    The paper's defining equation for eta_k is T_k(m_k, r) = 0 written
    out (for k = 1, 2 log(1 + 2^-r) = log G_1(r)), so this is
    ``r_threshold(table, k, m_k, eps)`` with the same bracket.
    """
    check_k(k)
    check_eps(eps)
    m = _m_k(k)

    def sign_fn(r: float) -> Bracket:
        r_iv = to_iv(r)
        ((_, t, _),) = t_levels(table, k, r_iv, log_g_iv(k, r_iv), (m,))
        return t

    guide = partial(t_float, table, k, m)
    return _solve(sign_fn, sign_fn(2.0), eps, "bisection on T at m_k", guide)


def eta_limit(eps: float = LIMIT_EPS) -> RootResult:
    """The limiting threshold: the root in (1, 2) of

        (2^r/(2^r - 1)) ((3^r + 1)/(3^r - 1)) = zeta(r),

    solved in log form by bisection."""
    check_eps(eps)
    return _solve(
        _limit_sign, _limit_sign(2.0), eps, "bisection on limit equation", _limit_guide
    )


def _limit_sign(r: float) -> Bracket:
    """The limit equation in log form, lhs - log zeta(r), as a bracket."""
    r_iv = to_iv(r)
    p2 = iv_pow(iv.mpf(2), r_iv)
    p3 = iv_pow(iv.mpf(3), r_iv)
    lhs = iv.log(p2 / (p2 - 1)) + iv.log((p3 + 1) / (p3 - 1))
    return Bracket.from_iv(lhs - iv.log(zeta_iv(r_iv)))


def _limit_guide(r: float) -> float:
    """:func:`_limit_sign` in double precision."""
    return -math.log1p(-(2.0**-r)) + math.log1p(2.0 / (3.0**r - 1.0)) - math.log(fp.zeta(r))


def r1_surrogate(table: PrimeTable, eps: float = 1e-8) -> RootResult:
    """Root of the truncated surrogate V_1(1, .) in (1.5, 7/3).

    The surrogate itself is a plain double-precision sum over the first
    10^5 primes, so this result is float-certified only: the sign tests
    are exact for the computed V, whose own rounding error (~1e-12) is
    far below any tolerance of interest here.  V is fixed by those
    primes, and v(1.5) = -0.171 < 0 < v(7/3) = 0.062, so the walk starts
    from that bracket.
    """
    check_eps(eps)

    def v(r: float) -> float:
        return v_func(table, 1, 1, r)

    a, b, iterations = _walk(lambda r: -1 if v(r) < 0 else 1, 1.5, 7.0 / 3.0, eps)
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
    eta: RootResult  # thresholds[m_k]


@dataclass(frozen=True)
class EtaTable:
    """Rows for k = 1..k_max, each with ``m_min == m_k``.

    The eta column is strictly increasing, by a lemma rather than by its
    brackets: LF_{k+1}(p) > LF_k(p) for every prime, so
    T_{k+1}(m, .) < T_k(m, .) everywhere, and since T is increasing in r
    (``density.check_monotonicity``) its root R_k(m) moves right with k.
    That gives eta_{k+1} = R_{k+1}(2) > R_k(2) = eta_k for k >= 2, and
    eta_1 = R_1(1) < R_1(2) < R_2(2) = eta_2, where R_1(1) < R_1(2) is
    certified by ``select_m``.  From k = 12 on the brackets of adjacent
    rows overlap at the precision floor, so only a certified decrease,
    which would contradict the lemma, is an error.
    """

    rows: tuple[EtaRow, ...] = field(default=())

    def __post_init__(self):
        for row in self.rows:
            if row.m_min != _m_k(row.k):
                raise PrecisionError(
                    f"selector m_min={row.m_min} differs from m_k={_m_k(row.k)} at k={row.k}"
                )
        for prev, row in zip(self.rows, self.rows[1:]):
            if row.eta.value.hi < prev.eta.value.lo:
                raise PrecisionError(f"eta({row.k}) is certified below eta({prev.k})")


def eta_table(table: PrimeTable, k_max: int, eps: float = DEFAULT_EPS) -> EtaTable:
    """Thresholds, selector values, and density constants for k = 1..k_max,
    at most ETA_TABLE_MAX_K.  Each row's eta is its threshold at m_k,
    solved once at ``eps``."""
    check_k(k_max, "k_max")
    if k_max > ETA_TABLE_MAX_K:
        raise CapacityError(
            f"k_max {k_max} exceeds the table capacity; try {ETA_TABLE_MAX_K} or less",
            suggested_bound=ETA_TABLE_MAX_K,
        )
    rows = []
    for k in range(1, k_max + 1):
        thresholds = {m: r_threshold(table, k, m, eps) for m in (1, 2, 4)}
        rows.append(
            EtaRow(
                k=k,
                m_min=select_m(table, k, thresholds, eps),
                thresholds=thresholds,
                eta=thresholds[_m_k(k)],
            )
        )
    return EtaTable(rows=tuple(rows))
