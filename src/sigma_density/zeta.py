"""Certified enclosures of zeta(r) and of log G_k(r), where
G_k(r) = zeta(r)/zeta((k+1)r) is the supremum of the restricted divisor
sum, and the interval powers p^-r of primes.

zeta is evaluated by Euler-Maclaurin summation with the classical
remainder bound (for real r > 1 the remainder is no larger in magnitude
than the first omitted correction term), entirely in mpmath interval
arithmetic so rounding is accounted for.  The one kernel, :func:`zeta_iv`,
has two fixed sizes: FULL_SIZE feeds every bracket the program prints,
and SIGN_SIZE, about half the cost, only the solver's sign tests.
Callers turn an enclosure into a printed bracket with
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
    from_int,
    ftwo,
    mpi_add,
    mpi_div,
    mpi_exp,
    mpi_log,
    mpi_mul,
    mpi_neg,
    mpi_sub,
    round_ceiling,
    round_floor,
)

# Working precision for interval evaluations; ~60 decimal digits, far
# below the double-precision bracket floor, so interval rounding never
# dominates a returned bracket.
iv.prec = 200


def to_iv(x: float):
    """Exact interval image of a double (doubles are dyadic rationals)."""
    return iv.mpf(x)


# Interval log p by (prime, working precision), each taken on first use.
_LOG_PRIME: dict[tuple[int, int], object] = {}


def log_prime(p: int):
    """Interval log p at the working precision, taken once per prime."""
    key = p, iv.prec
    if key not in _LOG_PRIME:
        _LOG_PRIME[key] = iv.log(iv.mpf(p))
    return _LOG_PRIME[key]


def prime_power(p: int, expo):
    """p**expo = exp(expo * log p) for a prime p and an interval exponent."""
    return iv.exp(expo * log_prime(p))


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


_ONE, _TWO = (fone, fone), (ftwo, ftwo)


def _kernel_size(terms: int, corrections: int, prec: int) -> KernelSize:
    def exact(n: int) -> tuple:
        return from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)

    def coefficient(j: int) -> tuple:
        """B_{2j}/(2j)! * N^{1-2j}."""
        p, q = mpmath.bernfrac(2 * j)
        denominator = q * math.factorial(2 * j) * terms ** (2 * j - 1)
        return mpi_div(exact(int(p)), exact(int(denominator)), prec)

    smallest = [0, 1] + [
        next(p for p in range(2, n + 1) if n % p == 0) for n in range(2, terms + 1)
    ]
    return KernelSize(
        terms=terms,
        corrections=corrections,
        prec=prec,
        smallest_factor=tuple(smallest),
        log_p={p: mpi_log(exact(p), prec) for p in range(2, terms + 1) if smallest[p] == p},
        n=exact(terms),
        coeffs=tuple(coefficient(j) for j in range(1, corrections + 1)),
        rising_steps=tuple((exact(2 * j - 1), exact(2 * j)) for j in range(1, corrections + 1)),
        remainder=mpi_mul(coefficient(corrections + 1), (fnone, fone), prec),
    )


# Every printed bracket comes from the full size, about 3e-32 wide
# relative to zeta on [1.0001, 202].  The sign size, about 1e-16 wide
# there at under half the cost, serves only the solver's certified sign
# tests, which escalate to the full size where its bracket straddles 0.
FULL_SIZE = _kernel_size(25, 12, 200)
SIGN_SIZE = _kernel_size(12, 6, 80)


def zeta_iv(s, size: KernelSize = FULL_SIZE):
    """Interval enclosure of zeta(s) for an interval s with s.a > 1:

        zeta(s) = sum_{n<=N} n^-s + N^{1-s}/(s-1) - N^-s/2
                  + sum_{j<=M} B_{2j}/(2j)! * s(s+1)...(s+2j-2) * N^{1-s-2j}
                  + R_M,

    with N, M and the working precision fixed by ``size``.  Every even
    derivative of f(x) = x^-s is positive on [N, oo) for every real s > 1
    and N >= 1, so the classical remainder theorem puts R_M between 0 and
    the first omitted term (j = M + 1): the cost does not grow with s.

    Only p^-s for the primes p <= N takes an exp; every other n^-s is the
    product of two earlier powers, and N^{1-s-2j} = N^{1-2j} * N^-s.
    Each factor is positive and decreasing in s, so the products enclose
    as tightly as the exps they replace.
    """
    prec = size.prec
    s = s._mpi_
    minus_s = mpi_neg(s, prec)
    powers = [None, _ONE]  # powers[n] = n^-s
    total = _ONE
    for n in range(2, size.terms + 1):
        p = size.smallest_factor[n]
        if p == n:
            power = mpi_exp(mpi_mul(minus_s, size.log_p[p], prec), prec)
        else:
            power = mpi_mul(powers[p], powers[n // p], prec)
        powers.append(power)
        total = mpi_add(total, power, prec)
    N_s = powers[size.terms]
    total = mpi_add(
        total, mpi_div(mpi_mul(size.n, N_s, prec), mpi_sub(s, _ONE, prec), prec), prec
    )
    total = mpi_sub(total, mpi_div(N_s, _TWO, prec), prec)
    rising = s  # s(s+1)...(s+2j-2), starting value for j = 1
    for coeff, (odd, even) in zip(size.coeffs, size.rising_steps):
        total = mpi_add(total, mpi_mul(mpi_mul(coeff, rising, prec), N_s, prec), prec)
        rising = mpi_mul(
            mpi_mul(rising, mpi_add(s, odd, prec), prec), mpi_add(s, even, prec), prec
        )
    remainder = mpi_mul(mpi_mul(size.remainder, rising, prec), N_s, prec)
    return iv.make_mpf(mpi_add(total, remainder, prec))


def log_g_iv(k: int, r_iv):
    """Interval enclosure of log G_k(r), G_k(r) = zeta(r)/zeta((k+1)r)."""
    return iv.log(zeta_iv(r_iv)) - iv.log(zeta_iv((k + 1) * r_iv))
