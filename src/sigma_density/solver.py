"""Certified root solving for the density thresholds.

Every threshold is the unique root in (1, 2) of a function that is
strictly increasing there (``density.check_monotonicity`` proves it for
T_k(m, .), m in {1, 2, 4}, at every k, k = inf included; the limit
equation that gives eta_inf is T_inf(2, .)), found by bisection: each
returned bracket contains a root by the intermediate value theorem on
certified signs, or carries an explicit boundary flag for the "no root,
threshold = 2" case.

A certified sign test costs an interval evaluation of zeta (milliseconds),
so the one bisection routine, :func:`_solve`, walks its path with a
float64 estimate of the same function, its guide (microseconds), and
certifies only the points the returned bracket rests on, the
a-posteriori verification pattern of Rump, "Verification methods" (Acta
Numerica 2010): the residual at its midpoint, which is printed, and the
endpoint on the other side of the root, or both ends where the residual
straddles 0.  A certified sign at the midpoint and the opposite one at
that endpoint put a root between them; the sign at the far endpoint, and
that the root is the only one, rest on monotonicity.  An endpoint test
multiplies the local factors whose logs the printed route sums
(:func:`density.t_sign`), with zeta at ``zeta.SIGN_SIZE``, and where
that is undecided takes the sign of the printed full-size T bracket at
that point.  Every printed bracket (the residual, and a boundary's
bracket at 2) is that log form, ``density.t_at`` (through
``density.t_func`` in :func:`r_threshold`), on ``mpmath.libmp`` interval
tuples at ``FULL_SIZE.prec``, so no output depends on the sign test.
Because the function is increasing, a root certified inside the bracket
makes the guided path the certified path, so guided and certified-only
solves return the same bits.  The
guide is evaluated about ten times a root, not once a midpoint: its
float root is found first by regula falsi, and the walk is replayed by
comparing each midpoint with that root.  A guide that brackets no root,
or a replay that the certified points do not confirm, leads to the
certified-only walk; as the solve with a NaN guide, it is the tests'
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable

from .brackets import Bracket, check_eps
from .density import LEVELS, R_MONOTONE_LO, t_at, t_float, t_func, t_sign
from .errors import CapacityError, DomainError, PrecisionError, check_k
from .primes import PrimeTable
from .zeta import to_iv
# Unused here; kept because perfbench's tracer test checks that tracing
# restores solver.zeta_iv.
from .zeta import zeta_iv  # noqa: F401

DEFAULT_EPS = 1e-10
LIMIT_EPS = 1e-9

# Largest k_max of :func:`eta_table`; a row costs about 1.5 ms of CPU at
# any k (best of 3 in process: 25, 77 and 151 ms at k_max 10, 50 and 100;
# Python 3.11, mpmath 1.3, one process on a shared 2-core x86-64 host).
ETA_TABLE_MAX_K = 100

# Every target diverges to -inf at 1+, so its sign is negative here; a
# solve that tests this start (see :func:`_solve`) and cannot certify
# that sign fails loudly.  The walk stays inside the range on which
# density.check_monotonicity proves its target increasing.
_START = R_MONOTONE_LO

# The guides stay within 2e-15 of their certified functions on [1.0001, 2]
# (mpmath.fp.zeta is within 2e-16 relative of the 200-bit zeta there, and
# each function is a few logs of size at most 10).  A guide's sign is
# taken only where it clears this bound, a margin of 50, and a certified
# test decides inside it.  The bound sets how many midpoints are
# certified, never soundness: the root is certified in the bracket afterwards.
GUIDE_ERROR = 1e-13

# The replayed walk (see :func:`_solve`) takes the guide's sign, or a
# certified test inside GUIDE_ERROR, at the midpoints within GUIDE_NEAR of
# the guide's float root, and the side of that root elsewhere.
# :func:`_guide_root` stops where |guide| is at most GUIDE_ROOT_VALUE,
# below the guide's own 2e-15 error, and after at most GUIDE_ROOT_STEPS
# evaluations.
GUIDE_NEAR = 1e-12
GUIDE_ROOT_VALUE = 1e-15
GUIDE_ROOT_STEPS = 40


@dataclass(frozen=True)
class RootResult:
    """A solved threshold with certified enclosure.

    ``value`` encloses the root.  Unless ``boundary`` is set, a root lies
    inside it by the intermediate value theorem: ``residual``, the
    function bracket at the midpoint, and a certified sign at the
    endpoint across the root from it (at both endpoints when the residual
    straddles 0) are opposite.  That the function is increasing gives the
    sign at the other endpoint and that the root is unique.  ``boundary``
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


def _guide_root(guide: Callable[[float], float], a: float, b: float, fa: float, fb: float) -> float:
    """A float root of ``guide`` in [a, b], where fa = guide(a) < 0 < fb =
    guide(b), by the Anderson-Bjorck variant of regula falsi (Anderson and
    Bjorck, BIT 1973): when one end stays twice in a row, its value is
    scaled by 1 - f(c)/f(other end), or halved where that is not
    positive.  It returns a point where |guide| <= GUIDE_ROOT_VALUE, or
    else the middle of the bracket once a secant point falls outside it,
    or after GUIDE_ROOT_STEPS evaluations."""
    kept = 0
    for _ in range(GUIDE_ROOT_STEPS):
        c = (a * fb - b * fa) / (fb - fa)
        if not a < c < b:
            break
        fc = guide(c)
        if abs(fc) <= GUIDE_ROOT_VALUE:
            return c
        if fc > 0:
            if kept > 0:
                m = 1.0 - fc / fb
                fa *= m if m > 0 else 0.5
            b, fb, kept = c, fc, 1
        else:
            if kept < 0:
                m = 1.0 - fc / fa
                fb *= m if m > 0 else 0.5
            a, fa, kept = c, fc, -1
    return a + (b - a) * 0.5


def _solve(
    value: Callable[[float], Bracket],
    sign: Callable[[float], int | None],
    guide: Callable[[float], float],
    eps: float,
    method: str,
) -> RootResult:
    """The root in (1, 2) of a strictly increasing function by bisection
    from [_START, 2].  ``value(r)`` is its full-size bracket, which is
    printed (the residual, and a boundary's bracket at 2), and ``sign(r)``
    its certified sign with zeta at SIGN_SIZE, or None where that is
    undecided; a certified test then takes the sign of ``value(r)``.  Each
    is evaluated at most once per point per solve.

    Where ``guide``, a float estimate of the function, is negative at
    _START and positive at 2, the walk is replayed from the guide's float
    root g (:func:`_guide_root`, about ten guide evaluations where the
    walk has 34 or more midpoints): a midpoint within GUIDE_NEAR of g takes
    the guide's sign where |guide| > GUIDE_ERROR and a certified test
    elsewhere, and any other goes to g's side, as the guide is within
    2e-15 of the function and the function's slope near its roots is far
    above 2e-15/GUIDE_NEAR.  The full-size residual at the midpoint of the
    bracket [a, b] the replay ends on is taken first.  Certified positive,
    it needs only a sign at a certified negative: a root lies in (a, mid),
    and the function at b exceeds its positive value at mid.  Certified
    negative, it needs only a sign at b certified positive; straddling 0,
    it needs both.  A root so certified inside [a, b] means every midpoint
    before went to the root's side, as a certified test would have sent
    it, so the replay is the certified walk, whatever g was.

    Otherwise, and for a guide that brackets no root on [_START, 2] (a NaN
    guide included), the ends of [_START, 2] are certified, 2 by its
    printed bracket, and the walk takes a certified test at every
    midpoint.  A bracket at 2 certified nonpositive gives the boundary
    result, and one that straddles 0 raises.  Only r_threshold's solves
    reach the boundary: the T_k(m_k, .) of :func:`eta` and
    :func:`eta_limit` is positive at 2, since ``density.check_selector``
    certifies it positive at 1.9 or below (signs (c) and (e)) and it is
    increasing.
    """
    value_at = cache(value)

    @cache
    def certified(r: float) -> int | None:
        s = sign(r)
        return value_at(r).certified_sign() if s is None else s

    def rests_on_root(a: float, b: float) -> bool:
        side = value_at(0.5 * (a + b)).certified_sign()
        return (side == -1 or certified(a) == -1) and (side == 1 or certified(b) == 1)

    walked = None
    at_two, at_start = guide(2.0), guide(_START)
    if at_start < 0 < at_two:
        root = _guide_root(guide, _START, 2.0, at_start, at_two)

        def replayed(r: float) -> int | None:
            if abs(r - root) > GUIDE_NEAR:
                return 1 if r > root else -1
            g = guide(r)
            if abs(g) > GUIDE_ERROR:
                return 1 if g > 0 else -1
            return certified(r)

        try:
            walked = _walk(replayed, _START, 2.0, eps)
        except PrecisionError:
            pass
    if walked is None or not rests_on_root(*walked[:2]):
        at_two = value_at(2.0)
        if at_two.certified_sign() != 1:
            if at_two.nonpositive():
                return RootResult(
                    value=Bracket.exact(2.0),
                    iterations=0,
                    residual=at_two,
                    method="boundary (no sign change on (1, 2))",
                    boundary=True,
                )
            raise PrecisionError(f"{method}: sign not certified positive at r = 2")
        if certified(_START) != -1:
            raise PrecisionError(f"{method}: sign not certified negative at r = {_START}")
        walked = _walk(certified, _START, 2.0, eps)
    a, b, steps = walked
    return RootResult(
        value=Bracket(a, b),
        iterations=steps,
        residual=value_at(0.5 * (a + b)),
        method=method,
    )


def r_threshold(table: PrimeTable, k: int | float, m: int, eps: float = DEFAULT_EPS) -> RootResult:
    """The unique root of T_k(m, .) in (1, 2), or the boundary value 2
    when T_k(m, .) stays negative on the whole interval."""
    check_k(k)
    if m not in LEVELS:
        raise DomainError(f"m must be one of 1, 2, 4, got {m}")
    check_eps(eps)
    return _solve(
        partial(t_func, table, k, m),
        partial(t_sign, table, k, m),
        partial(t_float, table, k, m),
        eps,
        "bisection on T",
    )


def m_selector(k: int | float) -> int:
    """m_k, the level whose threshold is the least of R_k(1), R_k(2) and
    R_k(4), and so eta_k: 1 for k = 1, 2 for k >= 2 and k = inf.
    ``density.check_selector`` proves this rule for every k."""
    check_k(k)
    return 1 if k == 1 else 2


def eta(table: PrimeTable, k: int | float, eps: float = DEFAULT_EPS) -> RootResult:
    """The density threshold eta_k: the root of T_k(m_k, .) in (1, 2).

    The paper's defining equation for eta_k is T_k(m_k, r) = 0 written
    out (for k = 1, 2 log(1 + 2^-r) = log G_1(r)), so this is
    ``r_threshold(table, k, m_k, eps)`` with the same bracket.  At
    k = inf it is :func:`eta_limit` under this method string.
    """
    check_k(k)
    check_eps(eps)
    return _eta(table, k, eps, "bisection on T at m_k")


def eta_limit(table: PrimeTable, eps: float = LIMIT_EPS) -> RootResult:
    """The limiting threshold eta_inf: the root in (1, 2) of T_inf(2, .),

        log(1 + 3^-r) - log(1 - 2^-r) - log(1 - 3^-r) - log zeta(r),

    the log of (2^r/(2^r - 1)) ((3^r + 1)/(3^r - 1)) / zeta(r)."""
    check_eps(eps)
    return _eta(table, math.inf, eps, "bisection on limit equation")


def _eta(table: PrimeTable, k: int | float, eps: float, method: str) -> RootResult:
    """The root of T_k(m_k, .) by :func:`_solve` under ``method``; a
    printed value is :func:`density.t_at` at m_k."""
    m = m_selector(k)
    return _solve(
        lambda r: t_at(table, k, m, to_iv(r)),
        partial(t_sign, table, k, m),
        partial(t_float, table, k, m),
        eps,
        method,
    )


@dataclass(frozen=True)
class EtaRow:
    k: int
    m_min: int
    thresholds: dict[int, RootResult]  # m in {1, 2, 4}
    eta: RootResult  # thresholds[m_k]


@dataclass(frozen=True)
class EtaTable:
    """Rows for k = 1..k_max, each with ``m_min = m_selector(k)``.

    The eta column is strictly increasing, by a lemma rather than by its
    brackets: LF_{k+1}(p) > LF_k(p) for every prime, so
    T_{k+1}(m, .) < T_k(m, .) everywhere, and since T is increasing in r
    (``density.check_monotonicity``) its root R_k(m) moves right with k.
    That gives eta_{k+1} = R_{k+1}(2) > R_k(2) = eta_k for k >= 2, and
    eta_1 = R_1(1) < R_1(2) < R_2(2) = eta_2, where R_1(1) < R_1(2) is
    certified by ``density.check_selector``.  From k = 12 on the brackets
    of adjacent rows overlap at the precision floor, so only a certified
    decrease, which would contradict the lemma, is an error.
    """

    rows: tuple[EtaRow, ...] = field(default=())

    def __post_init__(self):
        for prev, row in zip(self.rows, self.rows[1:]):
            if row.eta.value.hi < prev.eta.value.lo:
                raise PrecisionError(f"eta({row.k}) is certified below eta({prev.k})")


def eta_table(table: PrimeTable, k_max: int, eps: float = DEFAULT_EPS) -> EtaTable:
    """Thresholds, selector values, and density constants for k = 1..k_max,
    at most ETA_TABLE_MAX_K.  Each row's eta is its threshold at m_k,
    solved once at ``eps``."""
    check_k(k_max, "k_max", infinite=False)  # the table has a row per k
    if k_max > ETA_TABLE_MAX_K:
        raise CapacityError(f"k_max {k_max} exceeds the table capacity; try {ETA_TABLE_MAX_K} or less")
    rows = []
    for k in range(1, k_max + 1):
        thresholds = {m: r_threshold(table, k, m, eps) for m in LEVELS}
        m = m_selector(k)
        rows.append(EtaRow(k=k, m_min=m, thresholds=thresholds, eta=thresholds[m]))
    return EtaTable(rows=tuple(rows))
