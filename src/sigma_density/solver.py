"""Certified root solving for the density thresholds.

Every threshold is the unique root in (1, 2) of a function that is
strictly increasing there (``density.check_monotonicity`` proves it for
T_k(m, .), m in {1, 2, 4}, at every k; for the limit equation it is
assumed), found by bisection: each returned bracket contains a root by
the intermediate value theorem on certified signs, or carries an
explicit boundary flag for the "no root, threshold = 2" case.

A certified sign test costs an interval evaluation of zeta (milliseconds),
so the one bisection routine, :func:`_solve`, walks its path with a
float64 estimate of the same function, its guide (microseconds), and
certifies only the points the returned bracket rests on, the
a-posteriori verification pattern of Rump, "Verification methods" (Acta
Numerica 2010): the residual at its midpoint, which is printed, and the
endpoint on the other side of the root.  A certified sign at the
midpoint and the opposite one at that endpoint put a root between them,
inside the bracket; the sign at the far endpoint, and that the root is
the only one, rest on monotonicity.  Where the residual straddles 0,
both endpoints are certified.  An endpoint test needs only a sign, so it
takes zeta at ``zeta.SIGN_SIZE`` and escalates to ``zeta.FULL_SIZE``
only where the small bracket straddles 0; every printed bracket (the
residual, and a boundary's bracket at 2) is full size, so no output
depends on the sign size.  Because the function is increasing, a root
certified inside the bracket makes the guided path the certified path,
so guided and certified-only solves return the same bits, and the ends
of the start bracket [1.0001, 2] need no certified test of their own
while the guide clears them.  The certified-only walk remains the
fallback and, as the solve with a NaN guide, the tests' reference.
Bisection is deterministic, so the selector, when thresholds tie, solves
them again at eps/100 and gets the bits a fresh solve at that eps gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from mpmath import fp, iv

from .brackets import PRECISION_FLOOR, Bracket, check_eps
from .density import t_float, t_func, t_levels, v_func
from .errors import CapacityError, DomainError, PrecisionError, check_k
from .primes import PrimeTable
from .zeta import FULL_SIZE, SIGN_SIZE, KernelSize, iv_pow, log_g_iv, to_iv, zeta_iv

DEFAULT_EPS = 1e-10
LIMIT_EPS = 1e-9

# Largest k_max of :func:`eta_table`; a row costs about 70 ms at any k.
ETA_TABLE_MAX_K = 100

# Every target diverges to -inf at 1+, so its sign is negative here; a
# solve that tests this start (see :func:`_solve`) and cannot certify
# that sign fails loudly.
_START = 1.0001

# The guides stay within 2e-15 of their certified functions on [1.0001, 2]
# (mpmath.fp.zeta is within 2e-16 relative of the 200-bit zeta there, and
# each function is a few logs of size at most 10).  A guide's sign is
# taken only where it clears this bound, a margin of 50, and a certified
# test decides inside it.  The bound sets how many midpoints are
# certified, never soundness: the root is certified in the bracket afterwards.
GUIDE_ERROR = 1e-13


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


def _solve(
    sign_fn: Callable[[float, KernelSize], Bracket],
    guide: Callable[[float], float],
    eps: float,
    method: str,
    boundary: bool = False,
) -> RootResult:
    """The root in (1, 2) of a strictly increasing ``sign_fn`` by bisection
    from [_START, 2], steered by ``guide``, a float estimate of ``sign_fn``:
    a point's sign is the guide's wherever |guide| > GUIDE_ERROR and a
    certified test elsewhere.  ``sign_fn(r, size)`` brackets the function
    at r with zeta at ``size``, at most once per point and size per solve:
    a certified test reads the SIGN_SIZE bracket and escalates to the
    FULL_SIZE one only where that straddles 0.  The residual and a
    boundary's bracket at 2, which are printed, are FULL_SIZE.

    The steered sign at 2 comes first.  When it is positive, the walk is
    steered, and the full-size residual at the midpoint of the bracket
    [a, b] it ends on is taken first.  Certified positive, it needs only
    a sign at a certified negative: a root lies in (a, mid), and the
    function at b exceeds its positive value at mid.  Certified negative,
    it needs only a sign at b certified positive; straddling 0, it needs
    both.  A root so certified inside [a, b] means every midpoint before
    went to the root's side, as a certified test would have sent it, so
    the steered walk is the certified walk.  Otherwise, or when an
    endpoint fails its test, both ends of [_START, 2] are certified, 2 at
    FULL_SIZE, and the walk is redone with a certified test at every
    midpoint.  A sign at 2 certified nonpositive gives the boundary result
    when ``boundary`` is set and raises otherwise.  A NaN guide makes
    every sign a certified test.
    """
    brackets: dict[tuple[float, KernelSize], Bracket] = {}

    def bracket(r: float, size: KernelSize) -> Bracket:
        if (r, size) not in brackets:
            brackets[r, size] = sign_fn(r, size)
        return brackets[r, size]

    def certified(r: float) -> int | None:
        sign = bracket(r, SIGN_SIZE).certified_sign()
        return bracket(r, FULL_SIZE).certified_sign() if sign is None else sign

    def steered(r: float) -> int | None:
        g = guide(r)
        if abs(g) > GUIDE_ERROR:
            return 1 if g > 0 else -1
        return certified(r)

    def rests_on_root(a: float, b: float) -> bool:
        side = bracket(0.5 * (a + b), FULL_SIZE).certified_sign()
        return (side == -1 or certified(a) == -1) and (side == 1 or certified(b) == 1)

    walked = None
    if steered(2.0) == 1:
        try:
            walked = _walk(steered, _START, 2.0, eps)
        except PrecisionError:
            pass
    if walked is None or not rests_on_root(*walked[:2]):
        at_two = bracket(2.0, FULL_SIZE)
        if at_two.certified_sign() != 1:
            if boundary and at_two.nonpositive():
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
        residual=bracket(0.5 * (a + b), FULL_SIZE),
        method=method,
    )


def r_threshold(table: PrimeTable, k: int, m: int, eps: float = DEFAULT_EPS) -> RootResult:
    """The unique root of T_k(m, .) in (1, 2), or the boundary value 2
    when T_k(m, .) stays negative on the whole interval."""
    check_k(k)
    if m not in (1, 2, 4):
        raise DomainError(f"m must be one of 1, 2, 4, got {m}")
    check_eps(eps)
    sign_fn = partial(t_func, table, k, m)
    guide = partial(t_float, table, k, m)
    return _solve(sign_fn, guide, eps, "bisection on T", boundary=True)


def m_selector(table: PrimeTable, k: int) -> int:
    """The smallest m in {1, 2, 4} whose threshold attains the minimum."""
    check_k(k)
    roots = {m: r_threshold(table, k, m, DEFAULT_EPS) for m in (1, 2, 4)}
    return select_m(table, k, roots, DEFAULT_EPS)


def select_m(table: PrimeTable, k: int, roots: dict[int, RootResult], eps: float) -> int:
    """The selector from thresholds already solved at ``eps``.

    While the winner has not separated from the rest, the three thresholds
    are solved again at eps/100 per round, down to the precision floor; a
    tie that persists there raises with the tied candidates.  Equal
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
        roots = {m: r_threshold(table, k, m, eps) for m in (1, 2, 4)}


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

    def sign_fn(r: float, size: KernelSize) -> Bracket:
        r_iv = to_iv(r)
        ((_, t, _),) = t_levels(table, k, r_iv, log_g_iv(k, r_iv, size), (m,))
        return t

    return _solve(sign_fn, partial(t_float, table, k, m), eps, "bisection on T at m_k")


def eta_limit(eps: float = LIMIT_EPS) -> RootResult:
    """The limiting threshold: the root in (1, 2) of

        (2^r/(2^r - 1)) ((3^r + 1)/(3^r - 1)) = zeta(r),

    solved in log form by bisection."""
    check_eps(eps)
    return _solve(_limit_sign, _limit_guide, eps, "bisection on limit equation")


def _limit_sign(r: float, size: KernelSize = FULL_SIZE) -> Bracket:
    """The limit equation in log form, lhs - log zeta(r), as a bracket,
    with zeta at ``size``."""
    r_iv = to_iv(r)
    p2 = iv_pow(iv.mpf(2), r_iv)
    p3 = iv_pow(iv.mpf(3), r_iv)
    lhs = iv.log(p2 / (p2 - 1)) + iv.log((p3 + 1) / (p3 - 1))
    return Bracket.from_iv(lhs - iv.log(zeta_iv(r_iv, size)))


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
