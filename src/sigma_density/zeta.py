"""Certified evaluation of zeta(r), the ratio G_k(r) = zeta(r)/zeta((k+1)r),
Euler local factors, and restricted divisor sums on factored arguments.

zeta is evaluated by Euler-Maclaurin summation with the classical
remainder bound (for real r > 1 the remainder is no larger in magnitude
than the first omitted correction term), entirely in mpmath interval
arithmetic so rounding is accounted for.  The result is a
:class:`~sigma_density.brackets.Bracket` whose width is checked against
the requested tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
from mpmath import iv

from .brackets import Bracket, check_eps
from .errors import DomainError, PrecisionError, check_k, check_r
from .primes import PrimeTable

# Working precision for interval evaluations; ~60 decimal digits, far
# below the double-precision bracket floor, so interval rounding never
# dominates a returned bracket.
iv.prec = 200


def to_iv(x: float):
    """Exact interval image of a double (doubles are dyadic rationals)."""
    return iv.mpf(x)


def iv_pow(base, expo):
    """base**expo for interval base > 0 and arbitrary interval exponent."""
    return iv.exp(expo * iv.log(base))


# Euler-Maclaurin about N = EM_TERMS with M = EM_CORRECTIONS corrections,
# both fixed.  Everything that does not depend on s is built once at the
# working precision: log p for the primes p <= N, the smallest prime
# factor of each n <= N, B_{2j}/(2j)! * N^{1-2j} for j <= M + 1 (the last
# bounds the remainder), and the integers of the rising factorial.
EM_TERMS = 25
EM_CORRECTIONS = 12
_SMALLEST_FACTOR = [0, 1] + [
    next(p for p in range(2, n + 1) if n % p == 0) for n in range(2, EM_TERMS + 1)
]
_LOG_P = {
    p: iv.log(iv.mpf(p)) for p in range(2, EM_TERMS + 1) if _SMALLEST_FACTOR[p] == p
}


def _em_coefficient(j: int):
    """B_{2j}/(2j)! * N^{1-2j}."""
    p, q = mpmath.bernfrac(2 * j)
    denominator = q * math.factorial(2 * j) * EM_TERMS ** (2 * j - 1)
    return iv.mpf(int(p)) / iv.mpf(int(denominator))


_EM_COEFFS = [_em_coefficient(j) for j in range(1, EM_CORRECTIONS + 2)]
# (2j - 1, 2j) for j <= M: the factors that extend the rising factorial.
_RISING_STEPS = [(iv.mpf(2 * j - 1), iv.mpf(2 * j)) for j in range(1, EM_CORRECTIONS + 1)]
_N = iv.mpf(EM_TERMS)
_UNIT = iv.mpf([-1, 1])


def zeta_iv(s):
    """Interval enclosure of zeta(s) for an interval s with s.a > 1:

        zeta(s) = sum_{n<=N} n^-s + N^{1-s}/(s-1) - N^-s/2
                  + sum_{j<=M} B_{2j}/(2j)! * s(s+1)...(s+2j-2) * N^{1-s-2j}
                  + R_M.

    Every even derivative of f(x) = x^-s is positive on [N, oo) for every
    real s > 1 and N >= 1, so the classical remainder theorem puts R_M
    between 0 and the first omitted term (j = M + 1) with N and M fixed:
    the cost does not grow with s.

    Only p^-s for the primes p <= N takes an exp; every other n^-s is the
    product of two earlier powers, and N^{1-s-2j} = N^{1-2j} * N^-s.
    Each factor is positive and decreasing in s, so the products enclose
    as tightly as the exps they replace.
    """
    powers = [None, iv.mpf(1)]  # powers[n] = n^-s
    total = iv.mpf(1)
    for n in range(2, EM_TERMS + 1):
        p = _SMALLEST_FACTOR[n]
        powers.append(iv.exp(-s * _LOG_P[p]) if p == n else powers[p] * powers[n // p])
        total += powers[n]
    N_s = powers[EM_TERMS]
    total += _N * N_s / (s - 1)
    total -= N_s / 2
    rising = s  # s(s+1)...(s+2j-2), starting value for j = 1
    for j, coeff in enumerate(_EM_COEFFS, start=1):
        term = coeff * rising * N_s
        if j > EM_CORRECTIONS:  # R_M lies between 0 and this omitted term
            return total + term * _UNIT
        total += term
        odd, even = _RISING_STEPS[j - 1]
        rising = rising * (s + odd) * (s + even)


def zeta(r: float, eps: float = 1e-13) -> Bracket:
    """Bracket of width <= eps containing zeta(r), r > 1."""
    check_r(r)
    check_eps(eps)
    bracket = Bracket.from_iv(zeta_iv(to_iv(r)))
    if bracket.width > eps:
        raise PrecisionError(
            f"achieved bracket width {bracket.width} exceeds requested eps {eps}"
        )
    return bracket


def g_k_iv(k: int, r_iv):
    """Interval enclosure of G_k(r) = zeta(r)/zeta((k+1)r)."""
    return zeta_iv(r_iv) / zeta_iv((k + 1) * r_iv)


def log_g_iv(k: int, r_iv):
    """Interval enclosure of log G_k(r)."""
    return iv.log(zeta_iv(r_iv)) - iv.log(zeta_iv((k + 1) * r_iv))


def g_k(k: int, r: float, eps: float = 1e-10) -> Bracket:
    """Bracket for G_k(r), the supremum of the restricted divisor sum."""
    check_k(k)
    check_r(r)
    check_eps(eps)
    bracket = Bracket.from_iv(g_k_iv(k, to_iv(r)))
    if bracket.width > eps:
        raise PrecisionError(
            f"achieved bracket width {bracket.width} exceeds requested eps {eps}"
        )
    return bracket


def local_factor(p: int, k: int, r: float) -> float:
    """Euler local factor sum_{j=0}^k p^{-jr} in closed form."""
    check_k(k)
    if p < 2:
        raise DomainError(f"p must be prime, got {p}")
    check_r(r)
    x = float(p) ** (-r)
    return (1.0 - x ** (k + 1)) / (1.0 - x)


def log_local_factor_iv(p: int, k: int, r_iv):
    """Interval enclosure of log(sum_{j=0}^k p^{-jr})."""
    x = iv_pow(iv.mpf(p), -r_iv)
    return iv.log((1 - x ** (k + 1)) / (1 - x))


@dataclass(frozen=True)
class FactorSketch:
    """An element of the (k+1)-free integers in factored form.

    ``entries`` holds (prime_index, exponent) pairs with 1-based prime
    indices strictly increasing and every exponent in [1, k].  The empty
    list represents n = 1.  The integer itself is never materialized.
    """

    k: int
    entries: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        check_k(self.k)
        prev = 0
        for idx, exp in self.entries:
            if idx <= prev:
                raise DomainError("prime indices must be strictly increasing and >= 1")
            if not 1 <= exp <= self.k:
                raise DomainError(
                    f"exponent {exp} at prime index {idx} outside [1, {self.k}]"
                )
            prev = idx


def log_sigma_restricted(sketch: FactorSketch, r: float, table: PrimeTable) -> float:
    """log of the restricted divisor sum at the sketched integer.

    Multiplicativity turns the product of local factors into a sum of
    logs, which is the numerically stable form.
    """
    check_r(r)
    return sum(
        math.log1p(_local_partial(table.nth(idx), exp, r))
        for idx, exp in sketch.entries
    )


def sigma_restricted(sketch: FactorSketch, r: float, table: PrimeTable) -> float:
    """The restricted divisor sum sum_{d | n} d^{-r} at the sketched n."""
    check_r(r)
    value = 1.0
    for idx, exp in sketch.entries:
        value *= 1.0 + _local_partial(table.nth(idx), exp, r)
    return value


def _local_partial(p: int, exponent: int, r: float) -> float:
    """sum_{j=1}^{exponent} p^{-jr} (the local factor minus its leading 1)."""
    x = float(p) ** (-r)
    return x * (1.0 - x**exponent) / (1.0 - x)
