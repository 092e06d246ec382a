"""Certified enclosures of zeta(r) and of log G_k(r), where
G_k(r) = zeta(r)/zeta((k+1)r) is the supremum of the restricted divisor
sum, and the interval powers p^-r of primes.

zeta is evaluated by Euler-Maclaurin summation with the classical
remainder bound (for real r > 1 the remainder is no larger in magnitude
than the first omitted correction term), entirely in interval arithmetic
so rounding is accounted for.  Everything here runs on the
``mpmath.libmp`` interval tuples (lo, hi) that ``mpmath.iv`` objects
wrap, with the precision passed in.  The one kernel, :func:`zeta_iv`, has
two fixed sizes: FULL_SIZE feeds every bracket the program prints, and
SIGN_SIZE, about half the cost, only the solver's sign tests.  Besides
zeta(s) it returns its table of n^-s for n <= N, so the T route reads
p^-r for the primes p <= N from the evaluation of zeta(r) it makes
anyway, with the same bits as :func:`prime_power`.  Callers turn an
enclosure into a printed bracket with
:meth:`~sigma_density.brackets.Bracket.from_iv`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
from mpmath import iv
from mpmath.libmp import (
    fnone,
    fone,
    from_float,
    from_int,
    mpf_add,
    mpf_div,
    mpf_exp,
    mpf_mul,
    mpf_neg,
    mpf_shift,
    mpf_sub,
    mpi_div,
    mpi_exp,
    mpi_log,
    mpi_mul,
    mpi_sub,
    round_ceiling,
    round_floor,
)

# Working precision of the mpmath.iv objects of the cell cover
# (density.check_inequalities and check_monotonicity); ~60 decimal digits,
# far below the double-precision bracket floor.
iv.prec = 200

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
# wrap, with its precision as an argument rather than the global iv.prec.
# A size fixes N (Euler-Maclaurin terms), M (corrections) and the
# precision, and holds everything that does not depend on s, built at that
# precision: the smallest prime factor of each n <= N, log p for the
# primes p <= N, B_{2j}/(2j)! * N^{1-2j} for j <= M, the integers of the
# rising factorial, and the remainder coefficient (j = M + 1) times [-1, 1].
@dataclass(frozen=True, eq=False)
class KernelSize:
    """One fixed (N, M, precision) of :func:`zeta_iv` with its constants."""

    terms: int
    corrections: int
    prec: int
    smallest_factor: tuple[int, ...] = field(repr=False)
    log_p: dict[int, tuple] = field(repr=False)
    n: tuple = field(repr=False)
    coeffs: tuple[tuple, ...] = field(repr=False)
    rising_steps: tuple[tuple[tuple, tuple], ...] = field(repr=False)
    remainder: tuple = field(repr=False)


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
        n=_exact(terms, prec),
        coeffs=tuple(coefficient(j) for j in range(1, corrections + 1)),
        rising_steps=tuple(
            (_exact(2 * j - 1, prec), _exact(2 * j, prec)) for j in range(1, corrections + 1)
        ),
        remainder=mpi_mul(coefficient(corrections + 1), (fnone, fone), prec),
    )


# Every printed bracket comes from the full size, about 3e-32 wide
# relative to zeta on [1.0001, 202].  The sign size, about 1e-16 wide
# there at under half the cost, serves only the solver's certified sign
# tests, which escalate to the full size where its bracket straddles 0.
FULL_SIZE = _kernel_size(25, 12, 200)
SIGN_SIZE = _kernel_size(12, 6, 80)


def zeta_iv(s: tuple, size: KernelSize = FULL_SIZE) -> tuple[tuple, list]:
    """Interval enclosure of zeta(s) for an interval s with s.a > 1:

        zeta(s) = sum_{n<=N} n^-s + N^{1-s}/(s-1) - N^-s/2
                  + sum_{j<=M} B_{2j}/(2j)! * s(s+1)...(s+2j-2) * N^{1-s-2j}
                  + R_M,

    with N, M and the working precision fixed by ``size``, and the table
    ``powers`` of its terms, ``powers[n]`` = n^-s for 1 <= n <= N.  Every
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
    that ``mpi_mul``, ``mpi_add`` and ``mpi_div`` would pick: the same
    bits without their sign dispatch.
    """
    prec, down, up = size.prec, round_floor, round_ceiling
    sa, sb = s
    # -s as mpi_neg rounds it; times log p, as mpi_mul pairs a negative
    # interval with a positive one
    minus_sa, minus_sb = mpf_neg(sa, prec, up), mpf_neg(sb, prec, down)
    powers = [None, ONE]
    lo = hi = fone
    for n in range(2, size.terms + 1):
        p = size.smallest_factor[n]
        if p == n:
            log_lo, log_hi = size.log_p[p]
            a = mpf_exp(mpf_mul(minus_sb, log_hi, prec, down), prec, down)
            b = mpf_exp(mpf_mul(minus_sa, log_lo, prec, up), prec, up)
        else:
            (pa, pb), (qa, qb) = powers[p], powers[n // p]
            a, b = mpf_mul(pa, qa, prec, down), mpf_mul(pb, qb, prec, up)
        powers.append((a, b))
        lo, hi = mpf_add(lo, a, prec, down), mpf_add(hi, b, prec, up)
    na, nb = powers[size.terms]
    # + N * N^-s / (s - 1), then - N^-s / 2 (halving is exact)
    a = mpf_div(mpf_mul(size.n[0], na, prec, down), mpf_sub(sb, fone, prec, up), prec, down)
    b = mpf_div(mpf_mul(size.n[1], nb, prec, up), mpf_sub(sa, fone, prec, down), prec, up)
    lo = mpf_sub(mpf_add(lo, a, prec, down), mpf_shift(nb, -1), prec, down)
    hi = mpf_sub(mpf_add(hi, b, prec, up), mpf_shift(na, -1), prec, up)
    ra, rb = sa, sb  # s(s+1)...(s+2j-2), starting value for j = 1
    for (ca, cb), ((odd, _), (even, _)) in zip(size.coeffs, size.rising_steps):
        if ca[0]:  # B_{2j} < 0: the lower end pairs with the larger factors
            a = mpf_mul(mpf_mul(ca, rb, prec, down), nb, prec, down)
            b = mpf_mul(mpf_mul(cb, ra, prec, up), na, prec, up)
        else:
            a = mpf_mul(mpf_mul(ca, ra, prec, down), na, prec, down)
            b = mpf_mul(mpf_mul(cb, rb, prec, up), nb, prec, up)
        lo, hi = mpf_add(lo, a, prec, down), mpf_add(hi, b, prec, up)
        ra = mpf_mul(ra, mpf_add(sa, odd, prec, down), prec, down)
        ra = mpf_mul(ra, mpf_add(sa, even, prec, down), prec, down)
        rb = mpf_mul(rb, mpf_add(sb, odd, prec, up), prec, up)
        rb = mpf_mul(rb, mpf_add(sb, even, prec, up), prec, up)
    # R_M in [-c, c] * rising * N^-s, with c = size.remainder's upper end
    bound = mpf_mul(mpf_mul(size.remainder[1], rb, prec, up), nb, prec, up)
    return (mpf_sub(lo, bound, prec, down), mpf_add(hi, bound, prec, up)), powers


def log_g_iv(k: int, r: tuple, size: KernelSize = FULL_SIZE) -> tuple[tuple, list]:
    """Interval enclosure of log G_k(r), G_k(r) = zeta(r)/zeta((k+1)r),
    from two zeta_iv calls of ``size`` at its precision, with the table of
    n^-r that the call at r returns."""
    prec = size.prec
    zeta_r, powers = zeta_iv(r, size)
    zeta_kr, _ = zeta_iv(scale(k + 1, r, prec), size)
    return mpi_sub(mpi_log(zeta_r, prec), mpi_log(zeta_kr, prec), prec), powers
