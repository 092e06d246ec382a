"""Certified enclosures of zeta(r) and of log G_k(r), where
G_k(r) = zeta(r)/zeta((k+1)r) is the supremum of the restricted divisor
sum (zeta(r) at k = inf), and the interval powers p^-r of primes.

zeta is evaluated by Euler-Maclaurin summation with the classical
remainder bound (for real r > 1 the remainder is no larger in magnitude
than the first omitted correction term), or, where the integral tail is
below the kernel's unit, by the direct sum, in interval arithmetic so
rounding is accounted for.  Interfaces use the ``mpmath.libmp`` interval
tuples (lo, hi) that ``mpmath.iv`` objects wrap, with the precision
passed in.  The one kernel, :func:`zeta_iv`, has two fixed sizes:
FULL_SIZE feeds every bracket the program prints, and SIGN_SIZE, about
half the cost, only the solver's sign test and the walk's target check.
It sums on Python integers in units of 2^-F, F being the size's
precision plus GUARD_BITS, each lower end rounded down and each upper
end up, and returns exact mpf tuples.  Besides zeta(s) it returns its
table of p^-s for the primes p <= N, each from :func:`prime_power`, so
the T route reads p^-r and p^-(k+1)r for those primes from the
evaluations of zeta(r) and zeta((k+1)r) that log G makes anyway
(:func:`log_g_iv` returns both tables), with the same bits as for any
other prime.  Every exp
on a certified route goes through :func:`exp_out`, which takes
``mpf_exp`` to be within one ulp at its working precision and pads for
that.  Callers turn an enclosure into a printed bracket with
:meth:`~sigma_density.brackets.Bracket.from_iv`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import mpmath
from mpmath.libmp import (
    fone,
    from_float,
    from_int,
    from_man_exp,
    mpf_exp,
    mpf_neg,
    mpf_sub,
    mpi_log,
    mpi_mul,
    mpi_sub,
    round_ceiling,
    round_floor,
    round_nearest,
)

ONE = fone, fone

# Bits beyond a kernel size's precision in its fixed-point unit, and in
# the exps of :func:`exp_out`.  With 16, -s log p at a point s is narrow
# enough for one exp up to s of about 7000, past every (k+1)r <= 202 the
# solver and the table reach; below 11 bits zeta((k+1)r) would take two
# exps a prime there.  4 and 8 bits widened no printed bracket either.
GUARD_BITS = 16


def to_iv(x: float) -> tuple:
    """Exact interval image of a double (doubles are dyadic rationals)."""
    v = from_float(x)
    return v, v


def _exact(n: int, prec: int) -> tuple:
    return from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)


def scale(n: int, r: tuple, prec: int) -> tuple:
    """n * r for an integer n, formed as the iv context at ``prec`` forms it."""
    return mpi_mul(_exact(n, prec), r, prec)


@cache
def log_prime(p: int, prec: int) -> tuple:
    """Interval log p at ``prec`` bits, taken once per prime and precision."""
    return mpi_log(_exact(p, prec), prec)


def _exp_ulps(x: tuple, wp: int) -> tuple[int, int]:
    """mpf_exp(x) rounded to the nearest ``wp``-bit number, as (m, e) with
    m of exactly wp bits, so that m +- 1 is one ulp either side."""
    _, man, exp, bc = mpf_exp(x, wp, round_nearest)
    return man << (wp - bc), exp - (wp - bc)


def exp_out(t: tuple, prec: int) -> tuple:
    """An interval enclosing exp over the interval t = (a, b), for a
    result read at ``prec`` bits.  The exps are taken at
    prec + GUARD_BITS bits, and mpf_exp is trusted only to within one ulp
    there, so each end moves one ulp outward.  Where b - a < 2^-prec, as
    for t = -s log p at a point s, whose width is the rounding of log p
    and of the product, one exp at a serves both ends:
    exp(b) = exp(a) e^(b-a) <= exp(a) (1 + 2(b - a)), as e^w <= 1 + 2w
    for 0 <= w <= 1.  Otherwise b takes its own exp."""
    wp = prec + GUARD_BITS
    a, b = t
    man, exp = _exp_ulps(a, wp)
    lo = from_man_exp(man - 1, exp)
    if a == b:
        return lo, from_man_exp(man + 1, exp)
    _, w_man, w_exp, w_bc = mpf_sub(b, a, 8, round_ceiling)
    if w_exp + w_bc > -prec:
        man, exp = _exp_ulps(b, wp)
        return lo, from_man_exp(man + 1, exp)
    up = man + 1
    # ceil(up * 2w), with 2w = w_man * 2^(w_exp + 1) and w_exp + 1 < 0
    return lo, from_man_exp(up - ((-up * w_man) >> -(w_exp + 1)), exp)


def prime_power(p: int, expo: tuple, prec: int) -> tuple:
    """p**expo = exp(expo * log p) for a prime p and an interval exponent,
    the product formed at prec + GUARD_BITS bits and its exp by
    :func:`exp_out`."""
    wp = prec + GUARD_BITS
    return exp_out(mpi_mul(expo, log_prime(p, wp), wp), prec)


def _fixed(x: tuple, unit: int, up: bool) -> int:
    """The mpf x in units of 2^-unit: floor, or ceiling when ``up``."""
    sign, man, exp, _ = x
    if sign:
        man = -man
    shift = exp + unit
    if shift >= 0:
        return man << shift
    return -((-man) >> -shift) if up else man >> -shift


# A size fixes N (Euler-Maclaurin terms), M (corrections), the precision
# and the unit 2^-F, F = prec + GUARD_BITS, and holds what does not depend
# on s: the smallest prime factor of each n <= N and, as integers in units
# of 2^-(F + H), the floor and ceiling of B_{2j}/(2j)! * N^{1-2j} for
# j <= M and the ceiling of the remainder coefficient's magnitude
# (j = M + 1).  H covers the rising factorial s(s+1)...(s+2M) wherever
# the corrections are summed, so each product with it is good to a unit.
@dataclass(frozen=True, eq=False)
class KernelSize:
    """One fixed (N, M, precision) of :func:`zeta_iv` with its constants."""

    terms: int
    corrections: int
    prec: int
    unit: int
    coeff_unit: int
    smallest_factor: tuple[int, ...] = field(repr=False)
    coeffs: tuple[tuple[int, int], ...] = field(repr=False)
    remainder: int = field(repr=False)


def _kernel_size(terms: int, corrections: int, prec: int) -> KernelSize:
    unit = prec + GUARD_BITS
    # The corrections are summed only where N^(1-s)/(s-1) reaches a unit,
    # s < 1 + unit/log2(N); there s(s+1)...(s+2M) < top^(2M+1), below
    # 2^(coeff_unit - unit).
    top = 2 + unit / math.log2(terms) + 2 * corrections
    coeff_unit = unit + math.ceil((2 * corrections + 1) * math.log2(top))

    def coefficient(j: int) -> tuple[int, int]:
        """B_{2j}/(2j)! * N^{1-2j} in units of 2^-coeff_unit, floor and ceiling."""
        p, q = mpmath.bernfrac(2 * j)
        p, q = int(p) << coeff_unit, int(q) * math.factorial(2 * j) * terms ** (2 * j - 1)
        return p // q, -(-p // q)

    smallest = [0, 1] + [
        next(p for p in range(2, n + 1) if n % p == 0) for n in range(2, terms + 1)
    ]
    lo, hi = coefficient(corrections + 1)
    return KernelSize(
        terms=terms,
        corrections=corrections,
        prec=prec,
        unit=unit,
        coeff_unit=coeff_unit,
        smallest_factor=tuple(smallest),
        coeffs=tuple(coefficient(j) for j in range(1, corrections + 1)),
        remainder=max(-lo, hi),
    )


# Every printed bracket comes from the full size, about 3e-32 wide
# relative to zeta on [1.0001, 202].  The sign size, about 1e-16 wide
# there at under half the cost, serves only the solver's product sign
# test (density.t_sign) and the walk's target check.
FULL_SIZE = _kernel_size(25, 12, 200)
SIGN_SIZE = _kernel_size(12, 6, 80)


def zeta_iv(s: tuple, size: KernelSize = FULL_SIZE) -> tuple[tuple, list]:
    """Interval enclosure of zeta(s) for an interval s with s.a > 1:

        zeta(s) = sum_{n<=N} n^-s + N^{1-s}/(s-1) - N^-s/2
                  + sum_{j<=M} B_{2j}/(2j)! * s(s+1)...(s+2j-2) * N^{1-s-2j}
                  + R_M,

    with N, M and the unit fixed by ``size``, and the table ``powers`` of
    its prime terms: ``powers[n]`` = n^-s for n = 1 and the primes n <= N,
    the mpf intervals of :func:`prime_power`, and None at the composites,
    which no caller reads.  Every even derivative of f(x) = x^-s is
    positive on [N, oo) for every real s > 1 and N >= 1, so the classical
    remainder theorem puts R_M between 0 and the first omitted term
    (j = M + 1).  Where N^{1-s}/(s-1) is at most one unit (s above about
    1 + F/log2 N), sum_{n>N} n^-s lies in [0, N^{1-s}/(s-1)], each term
    being below its integral over [n - 1, n], and the corrections are
    dropped: the cost does not grow with s.

    Only p^-s for the primes p <= N takes an exp; every other n^-s is
    the product of two earlier powers, and N^{1-s-2j} = N^{1-2j} * N^-s.
    The sums run on integers in units of 2^-F, every lower end rounded
    down (``>>``) and every upper end up (``-((-x) >> F)``); each factor
    but B_{2j}, whose sign alternates, and the remainder's [-1, 1] is
    positive, which fixes the pairing of the ends.
    """
    unit = size.unit
    one = 1 << unit
    sa, sb = s
    s_lo, s_hi = _fixed(sa, unit, False), _fixed(sb, unit, True)
    minus_s = mpf_neg(sb), mpf_neg(sa)
    powers = [None, ONE]  # mpf ends of the prime entries; None at composites
    ends = [None, (one, one)]  # every entry's, in units
    lo = hi = one
    for n in range(2, size.terms + 1):
        p = size.smallest_factor[n]
        if p == n:
            x = prime_power(p, minus_s, size.prec)
            powers.append(x)
            a, b = _fixed(x[0], unit, False), _fixed(x[1], unit, True)
        else:
            powers.append(None)
            (pa, pb), (qa, qb) = ends[p], ends[n // p]
            a, b = (pa * qa) >> unit, -((-pb * qb) >> unit)
        ends.append((a, b))
        lo += a
        hi += b
    na, nb = ends[size.terms]
    # N * N^-s / (s - 1): one integer division for each end
    tail_hi = -((-(size.terms * nb) << unit) // (s_lo - one))
    if tail_hi <= 1:
        return (from_man_exp(lo, -unit), from_man_exp(hi + tail_hi, -unit)), powers
    lo += ((size.terms * na) << unit) // (s_hi - one) - ((nb + 1) >> 1)
    hi += tail_hi - (na >> 1)
    shift = size.coeff_unit
    ra, rb = s_lo, s_hi  # s(s+1)...(s+2j-2), starting value for j = 1
    for j, (ca, cb) in enumerate(size.coeffs, 1):
        if ca < 0:  # B_{2j} < 0: the lower end pairs with the larger factors
            lo += ((ca * rb) >> shift) * nb >> unit
            hi -= ((-cb * ra) >> shift) * na >> unit
        else:
            lo += ((ca * ra) >> shift) * na >> unit
            hi -= ((-cb * rb) >> shift) * nb >> unit
        ra = (ra * (s_lo + (2 * j - 1) * one)) >> unit
        ra = (ra * (s_lo + 2 * j * one)) >> unit
        rb = -((-rb * (s_hi + (2 * j - 1) * one)) >> unit)
        rb = -((-rb * (s_hi + 2 * j * one)) >> unit)
    # R_M in [-c, c] * rising * N^-s, with c = size.remainder
    m = -(((-size.remainder * rb) >> shift) * nb >> unit)
    return (from_man_exp(lo - m, -unit), from_man_exp(hi + m, -unit)), powers


def log_g_iv(k: int | float, r: tuple, size: KernelSize = FULL_SIZE) -> tuple[tuple, list, list | None]:
    """Interval enclosure of log G_k(r), G_k(r) = zeta(r)/zeta((k+1)r),
    from two zeta_iv calls of ``size`` at its precision (one at k = inf,
    where zeta((k+1)r) = 1), with the tables of p^-r and of p^-(k+1)r
    that the two calls return (None for the second at k = inf)."""
    prec = size.prec
    zeta_r, powers = zeta_iv(r, size)
    log_g, powers_k = mpi_log(zeta_r, prec), None
    if k != math.inf:
        zeta_kr, powers_k = zeta_iv(scale(k + 1, r, prec), size)
        log_g = mpi_sub(log_g, mpi_log(zeta_kr, prec), prec)
    return log_g, powers, powers_k
