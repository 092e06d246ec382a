"""Certified enclosures of zeta(r) and of log G_k(r), where
G_k(r) = zeta(r)/zeta((k+1)r) is the supremum of the restricted divisor
sum (zeta(r) at k = inf), and the interval powers p^-r of primes.

zeta is evaluated by Euler-Maclaurin summation with the classical
remainder bound (for real r > 1 the remainder is no larger in magnitude
than the first omitted correction term), entirely in interval arithmetic
so rounding is accounted for.  Everything here runs on the
``mpmath.libmp`` interval tuples (lo, hi) that ``mpmath.iv`` objects
wrap, with the precision passed in.  The one kernel, :func:`zeta_iv`, has
two fixed sizes: FULL_SIZE feeds every bracket the program prints, and
SIGN_SIZE, about half the cost, only the solver's sign tests.  It does
its sums, products and quotients on signed integer (mantissa, exponent)
pairs, rounded as mpmath rounds them, and returns mpf tuples.  Besides
zeta(s) it returns its table of p^-s for the primes p <= N, so the T
route reads p^-r for those primes from the evaluation of zeta(r) it
makes anyway, with the same bits as :func:`prime_power`.  Callers turn an
enclosure into a printed bracket with
:meth:`~sigma_density.brackets.Bracket.from_iv`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
from mpmath.libmp import (
    fone,
    from_float,
    from_int,
    from_man_exp,
    mpf_exp,
    mpf_mul,
    mpf_neg,
    mpi_abs,
    mpi_div,
    mpi_exp,
    mpi_log,
    mpi_mul,
    mpi_sub,
    round_ceiling,
    round_floor,
)

ONE = fone, fone


def to_iv(x: float) -> tuple:
    """Exact interval image of a double (doubles are dyadic rationals)."""
    v = from_float(x)
    return v, v


def _exact(n: int, prec: int) -> tuple:
    return from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)


def scale(n: int, r: tuple, prec: int) -> tuple:
    """n * r for an integer n, formed as the iv context at ``prec`` forms it."""
    return mpi_mul(_exact(n, prec), r, prec)


# Interval log p by (prime, precision), each taken on first use.
_LOG_PRIME: dict[tuple[int, int], tuple] = {}


def log_prime(p: int, prec: int) -> tuple:
    """Interval log p at ``prec`` bits, taken once per prime and precision."""
    key = p, prec
    if key not in _LOG_PRIME:
        _LOG_PRIME[key] = mpi_log(_exact(p, prec), prec)
    return _LOG_PRIME[key]


def prime_power(p: int, expo: tuple, prec: int) -> tuple:
    """p**expo = exp(expo * log p) for a prime p and an interval exponent."""
    return mpi_exp(mpi_mul(expo, log_prime(p, prec), prec), prec)


# The kernel runs on the libmp interval tuples that mpmath.iv objects
# wrap, with its precision as an argument.  A size fixes N (Euler-Maclaurin
# terms), M (corrections) and the precision, and holds everything that
# does not depend on s, built at that precision: the smallest prime factor
# of each n <= N, log p for the primes p <= N, and, as (mantissa, exponent)
# pairs, B_{2j}/(2j)! * N^{1-2j} for j <= M and the remainder coefficient
# (j = M + 1) in magnitude, rounded up.
@dataclass(frozen=True, eq=False)
class KernelSize:
    """One fixed (N, M, precision) of :func:`zeta_iv` with its constants."""

    terms: int
    corrections: int
    prec: int
    smallest_factor: tuple[int, ...] = field(repr=False)
    log_p: dict[int, tuple] = field(repr=False)
    coeffs: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = field(repr=False)
    remainder: tuple[int, int] = field(repr=False)


def _pair(x: tuple) -> tuple[int, int]:
    """An mpf tuple as a signed (mantissa, exponent) pair."""
    sign, man, exp, _ = x
    return (-man if sign else man), exp


def _kernel_size(terms: int, corrections: int, prec: int) -> KernelSize:
    def coefficient(j: int) -> tuple:
        """B_{2j}/(2j)! * N^{1-2j}."""
        p, q = mpmath.bernfrac(2 * j)
        denominator = q * math.factorial(2 * j) * terms ** (2 * j - 1)
        return mpi_div(_exact(int(p), prec), _exact(int(denominator), prec), prec)

    smallest = [0, 1] + [
        next(p for p in range(2, n + 1) if n % p == 0) for n in range(2, terms + 1)
    ]
    return KernelSize(
        terms=terms,
        corrections=corrections,
        prec=prec,
        smallest_factor=tuple(smallest),
        log_p={p: log_prime(p, prec) for p in range(2, terms + 1) if smallest[p] == p},
        coeffs=tuple(tuple(map(_pair, coefficient(j))) for j in range(1, corrections + 1)),
        remainder=_pair(mpi_abs(coefficient(corrections + 1), prec)[1]),
    )


# Every printed bracket comes from the full size, about 3e-32 wide
# relative to zeta on [1.0001, 202].  The sign size, about 1e-16 wide
# there at under half the cost, serves only the solver's certified sign
# tests, which escalate to the full size where its bracket straddles 0.
FULL_SIZE = _kernel_size(25, 12, 200)
SIGN_SIZE = _kernel_size(12, 6, 80)


# The kernel's arithmetic on signed (mantissa, exponent) pairs m * 2^e,
# each result rounded to ``prec`` bits as mpmath rounds it, so that every
# step gives the bits of the mpf_* call it replaces.
def _round(m: int, e: int, prec: int, up: bool) -> tuple[int, int]:
    """m * 2^e to ``prec`` bits: floor, or ceiling when ``up``."""
    s = m.bit_length() - prec
    if s <= 0:
        return m, e
    return (-(-m >> s) if up else m >> s), e + s


def _mul(x: tuple[int, int], y: tuple[int, int], prec: int, up: bool) -> tuple[int, int]:
    m, e = x[0] * y[0], x[1] + y[1]
    s = m.bit_length() - prec
    if s <= 0:
        return m, e
    return (-(-m >> s) if up else m >> s), e + s


def _add(x: tuple[int, int], y: tuple[int, int], prec: int, up: bool) -> tuple[int, int]:
    """x + y for nonzero x and y.  Where the smaller lies wholly below both
    the larger's last bit and its rounding position, it is replaced by +-1
    eight bits below them: the rounding is the same, and the sum needs no
    shift by the distance between them (n^-s and 1 at s = 1e308 lie about
    1.4e308 bits apart)."""
    m, e = x
    n, f = y
    top, top_y = e + m.bit_length(), f + n.bit_length()
    if top < top_y:
        m, e, n, f, top, top_y = n, f, m, e, top_y, top
    low = top - prec
    if e < low:
        low = e
    if top_y < low - 4:
        shift = e - low + 8
        m, e = (m << shift) + (1 if n > 0 else -1), e - shift
    elif e > f:
        m, e = (m << (e - f)) + n, f
    else:
        m += n << (f - e)
    s = m.bit_length() - prec
    if s <= 0:
        return m, e
    return (-(-m >> s) if up else m >> s), e + s


def _div(x: tuple[int, int], y: tuple[int, int], prec: int, up: bool) -> tuple[int, int]:
    """x / y for y > 0: the floor or ceiling integer quotient, with at
    least prec + 2 bits, rounded again the same way."""
    (m, e), (n, f) = x, y
    shift = max(prec + 2 + n.bit_length() - m.bit_length(), 0)
    q = -((-m << shift) // n) if up else (m << shift) // n
    return _round(q, e - f - shift, prec, up)


def zeta_iv(s: tuple, size: KernelSize = FULL_SIZE) -> tuple[tuple, list]:
    """Interval enclosure of zeta(s) for an interval s with s.a > 1:

        zeta(s) = sum_{n<=N} n^-s + N^{1-s}/(s-1) - N^-s/2
                  + sum_{j<=M} B_{2j}/(2j)! * s(s+1)...(s+2j-2) * N^{1-s-2j}
                  + R_M,

    with N, M and the working precision fixed by ``size``, and the table
    ``powers`` of its prime terms: ``powers[n]`` = n^-s for n = 1 and the
    primes n <= N, and None at the composites, which no caller reads.  Every
    even derivative of f(x) = x^-s is positive on [N, oo) for every real
    s > 1 and N >= 1, so the classical remainder theorem puts R_M between
    0 and the first omitted term (j = M + 1): the cost does not grow with s.

    Only p^-s for the primes p <= N takes an exp, the same one as
    :func:`prime_power`; every other n^-s is the product of two earlier
    powers, and N^{1-s-2j} = N^{1-2j} * N^-s.  Each factor is positive and
    decreasing in s, so the products enclose as tightly as the exps they
    replace.  Every factor but B_{2j}, whose sign alternates, and the
    remainder's [-1, 1] is positive, so each step is written out as the
    pair of roundings, floor for the lower end and ceiling for the upper,
    that ``mpi_mul``, ``mpi_add`` and ``mpi_div`` would pick, on integer
    (mantissa, exponent) pairs: the same bits, without their sign dispatch
    or the normalisation of each intermediate mpf.
    """
    prec = size.prec
    sa, sb = s
    # -s as mpi_neg rounds it; times log p, as mpi_mul pairs a negative
    # interval with a positive one
    minus_sa, minus_sb = mpf_neg(sa, prec, round_ceiling), mpf_neg(sb, prec, round_floor)
    powers = [None, ONE]  # mpf ends of the prime entries; None at composites
    ends = [None, ((1, 0), (1, 0))]  # every entry's, as pairs
    lo = hi = 1, 0
    for n in range(2, size.terms + 1):
        p = size.smallest_factor[n]
        if p == n:
            log_lo, log_hi = size.log_p[p]
            a = mpf_exp(mpf_mul(minus_sb, log_hi, prec, round_floor), prec, round_floor)
            b = mpf_exp(mpf_mul(minus_sa, log_lo, prec, round_ceiling), prec, round_ceiling)
            powers.append((a, b))
            a, b = _pair(a), _pair(b)
        else:
            powers.append(None)
            (pa, pb), (qa, qb) = ends[p], ends[n // p]
            a, b = _mul(pa, qa, prec, False), _mul(pb, qb, prec, True)
        ends.append((a, b))
        lo, hi = _add(lo, a, prec, False), _add(hi, b, prec, True)
    na, nb = ends[size.terms]
    sa, sb = _pair(sa), _pair(sb)
    # + N * N^-s / (s - 1), then - N^-s / 2 (halving is exact)
    terms = size.terms, 0
    a = _div(_mul(terms, na, prec, False), _add(sb, (-1, 0), prec, True), prec, False)
    b = _div(_mul(terms, nb, prec, True), _add(sa, (-1, 0), prec, False), prec, True)
    lo = _add(_add(lo, a, prec, False), (-nb[0], nb[1] - 1), prec, False)
    hi = _add(_add(hi, b, prec, True), (-na[0], na[1] - 1), prec, True)
    ra, rb = sa, sb  # s(s+1)...(s+2j-2), starting value for j = 1
    for j, (ca, cb) in enumerate(size.coeffs, 1):
        if ca[0] < 0:  # B_{2j} < 0: the lower end pairs with the larger factors
            a = _mul(_mul(ca, rb, prec, False), nb, prec, False)
            b = _mul(_mul(cb, ra, prec, True), na, prec, True)
        else:
            a = _mul(_mul(ca, ra, prec, False), na, prec, False)
            b = _mul(_mul(cb, rb, prec, True), nb, prec, True)
        lo, hi = _add(lo, a, prec, False), _add(hi, b, prec, True)
        odd, even = (2 * j - 1, 0), (2 * j, 0)
        ra = _mul(ra, _add(sa, odd, prec, False), prec, False)
        ra = _mul(ra, _add(sa, even, prec, False), prec, False)
        rb = _mul(rb, _add(sb, odd, prec, True), prec, True)
        rb = _mul(rb, _add(sb, even, prec, True), prec, True)
    # R_M in [-c, c] * rising * N^-s, with c = size.remainder
    m, e = _mul(_mul(size.remainder, rb, prec, True), nb, prec, True)
    lo, hi = _add(lo, (-m, e), prec, False), _add(hi, (m, e), prec, True)
    return (from_man_exp(*lo), from_man_exp(*hi)), powers


def log_g_iv(k: int | float, r: tuple, size: KernelSize = FULL_SIZE) -> tuple[tuple, list]:
    """Interval enclosure of log G_k(r), G_k(r) = zeta(r)/zeta((k+1)r),
    from two zeta_iv calls of ``size`` at its precision (one at k = inf,
    where zeta((k+1)r) = 1), with the table of p^-r that the call at r
    returns."""
    prec = size.prec
    zeta_r, powers = zeta_iv(r, size)
    log_g = mpi_log(zeta_r, prec)
    if k != math.inf:
        zeta_kr, _ = zeta_iv(scale(k + 1, r, prec), size)
        log_g = mpi_sub(log_g, mpi_log(zeta_kr, prec), prec)
    return log_g, powers
