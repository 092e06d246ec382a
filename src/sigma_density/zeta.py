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
table of p^-s for the primes p <= N, each as :func:`prime_power` gives it, so
the T route reads p^-r and p^-(k+1)r for those primes from the
evaluations of zeta(r) and zeta((k+1)r) that log G makes anyway
(:func:`log_g_iv` returns both tables), with the same bits as for any
other prime.  Every exp on a certified route is this module's own, on
Python integers (:func:`_exp_at`): reduction by n ln 2 and K halvings, a
Taylor sum and K squarings, each error bounded in its docstring, with
ln 2 and log p from an atanh series (:func:`_ln2`, :func:`_log_units`,
of which :func:`log_prime` is the mpf image).  It serves the kernel's
table, :func:`prime_power` and :func:`exp_iv`.  Callers turn an
enclosure into a printed bracket with
:meth:`~sigma_density.brackets.Bracket.from_iv`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import mpmath
from mpmath.libmp import (
    fone,
    from_float,
    from_int,
    from_man_exp,
    mpi_log,
    mpi_mul,
    mpi_sub,
    round_ceiling,
    round_floor,
)

ONE = fone, fone

# Bits beyond a kernel size's precision in its fixed-point unit 2^-F and in
# the integer log p that every p^-s is taken from, F = prec + GUARD_BITS.
# log p is then at most 2 units wide, so -s log p at a point s is narrower
# than 2^-prec, and one exp serves both of its ends, for s up to 2^15,
# past every (k+1)r <= 202 the solver and the table reach (9 bits would
# still do there).
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


def _fixed(man: int, shift: int, up: bool) -> int:
    """man * 2^shift as an integer: floor, or ceiling when ``up``."""
    if shift >= 0:
        return man << shift
    return -((-man) >> -shift) if up else man >> -shift


def _atanh_series(a: int, b: int, bits: int) -> tuple[int, int]:
    """log((b + a)/(b - a)) = 2 atanh(z), z = a/b, for integers
    0 <= 3a < b, in units of 2^-bits, as (lo, hi).  The series
    sum_j z^(2j+1)/(2j+1) runs on q_j, z^(2j+1) 2^bits rounded down from
    q_{j-1} a^2/b^2, so each q_j is less than 1/(1 - z^2) <= 9/8 below its
    value, and each term q_j // (2j+1) less than 2.  It stops at the first
    q_J = 0, where z^(2J+1) 2^bits < 9/8, so the tail is below (9/8)^2:
    the J terms sum to at most 2J + 2 below the series."""
    a2, b2 = a * a, b * b
    q = (a << bits) // b
    total = j = 0
    while q:
        total += q // (2 * j + 1)
        q = q * a2 // b2
        j += 1
    return 2 * total, 2 * (total + 2 * j + 2)


def _guard(bits: int) -> int:
    """Bits that the series of :func:`_atanh_series` run beyond ``bits``:
    its width, 4J + 4 units for J <= (bits + guard)/3 + 1 terms, and e
    times ln 2's for e < 64, stay below one unit at ``bits``, so the ends
    rounded out to ``bits`` are at most 2 units apart."""
    return bits.bit_length() + 5


@cache
def _ln2(bits: int) -> tuple[int, int]:
    """ln 2 = 2 atanh(1/3) in units of 2^-bits, at most 2 units wide."""
    guard = _guard(bits)
    lo, hi = _atanh_series(1, 3, bits + guard)
    return lo >> guard, -((-hi) >> guard)


@cache
def _log_units(p: int, bits: int) -> tuple[int, int]:
    """log p for an integer p >= 2 in units of 2^-bits, at most 2 units
    wide: e ln 2 + 2 atanh((p - 2^e)/(p + 2^e)) with 2^e <= p < 2^(e+1)."""
    guard = _guard(bits)
    e = p.bit_length() - 1
    l2_lo, l2_hi = _ln2(bits + guard)
    a_lo, a_hi = _atanh_series(p - (1 << e), p + (1 << e), bits + guard)
    return (e * l2_lo + a_lo) >> guard, -((-(e * l2_hi + a_hi)) >> guard)


@cache
def log_prime(p: int, prec: int) -> tuple:
    """Interval log p: the mpf image of the integer enclosure at
    prec + GUARD_BITS bits that every p^-s at ``prec`` is taken from."""
    unit = -prec - GUARD_BITS
    lo, hi = _log_units(p, prec + GUARD_BITS)
    return from_man_exp(lo, unit), from_man_exp(hi, unit)


@dataclass(frozen=True)
class _ExpPlan:
    """The constants of :func:`_exp_at` for one precision: the work
    precision w, the halvings K, the Taylor terms J with the Horner
    coefficients 2^w/j! rounded down, j = J..0, and the pad, in units of
    2^-w, between the two ends of exp at a reduced argument."""

    work: int
    halvings: int
    terms: int
    coeffs: tuple[int, ...] = field(repr=False)
    pad: int


# The most units that the Taylor remainder may take (see _exp_plan).
TAYLOR_TAIL = 64


@cache
def _exp_plan(prec: int) -> _ExpPlan:
    """The plan for results read at ``prec`` bits.  With F = prec +
    GUARD_BITS: K = isqrt(F) - 1 halvings, near Brent and Zimmermann's
    balance of terms and squarings, and w = F + K + 10, so that the pad,
    about 2^(K + 6) units, leaves the result within 2^-(F + 3) of exp,
    relative (at F = 216, w = 239 fits eight 30-bit digits of an int).

    At the reduced argument v = y 2^-K, 0 <= y < ln 2, the terms
    t_j = v^j/j! fall by v/j <= v < 2^-K.  J is the least count whose
    remainder, sum_{j>J} t_j <= 2 t_{J+1} at the largest v, is at most
    TAYLOR_TAIL units.  The sum of the terms j <= J runs by Horner's rule,
    h_j = C_j + floor(h_{j+1} v), on the coefficients C_j = 2^w/j! rounded
    down: each step loses less than 2 units and damps the loss before it
    by v, so h_0 is less than 2/(1 - v) < 3 units below the sum.  So
    exp(v) 2^w lies in [h_0, h_0 + E_0], E_0 = 3 + remainder.  Squaring
    S_i = exp(v 2^i) 2^w, at most (1 + 2^(i-K)) 2^w as 2^x <= 1 + x on
    [0, 1], rounded down, turns E_i into E_{i+1} = floor((2 S_i + E_i) E_i
    / 2^w) + 2, about twice E_i; the pad is E_K."""
    unit = prec + GUARD_BITS
    halvings = math.isqrt(unit) - 1
    work = unit + halvings + 10
    v = Fraction(_ln2(64)[1] + 1, 1 << (64 + halvings))
    terms, term = 0, Fraction(1 << work)  # term = t_J 2^w
    while 2 * term * v / (terms + 1) > TAYLOR_TAIL:
        terms += 1
        term = term * v / terms
    pad = 3 + math.ceil(2 * term * v / (terms + 1))
    for i in range(halvings):
        top = (1 << work) + (1 << (work - halvings + i))
        pad = ((2 * top + pad) * pad >> work) + 2
    coeffs = tuple((1 << work) // math.factorial(j) for j in range(terms, -1, -1))
    return _ExpPlan(work=work, halvings=halvings, terms=terms, coeffs=coeffs, pad=pad)


def _exp_at(man: int, exp: int, width: int, plan: _ExpPlan) -> tuple[int, int, int]:
    """exp over [x, x + width 2^exp], x = man 2^exp, from one exp at x,
    for width 2^exp < 2^-prec: (lo, hi, e), the interval lying in
    [lo 2^e, hi 2^e].

    x = n ln 2 + y: n = floor(x/ln 2) from ln 2 in units of 2^-b, b the
    power of two at or above w + (bits of n) + 2, where x rounds down to a
    unit and y lies in [0, ln 2).  y is then at most d = 1 + n_err + width
    units above its rounded value, n_err = |n| times ln 2's width, and
    still at most (d >> (b - w)) + 2 above once rounded down to units of
    2^-w.  exp(y 2^-w) = exp(v)^(2^K) for v = y 2^-(w + K) by the plan's
    Taylor sum and K squarings; exp(x) = 2^n exp(y), and the upper end
    takes e^d <= 1 + 2d for the slack d <= 1 (in its own units)."""
    w, halvings = plan.work, plan.halvings
    bits = 1 << (w + max(man.bit_length() + exp, 0) + 1).bit_length()
    l2_lo, l2_hi = _ln2(bits)
    shift = exp + bits
    if shift >= 0:
        x, slack = man << shift, width << shift
    else:
        x, slack = man >> -shift, 1 - ((-width) >> -shift)
    step = l2_hi if x >= 0 else l2_lo
    n = x // step
    y = (x - n * step) >> (bits - w)
    slack = ((slack + abs(n) * (l2_hi - l2_lo)) >> (bits - w)) + 2
    shift = w + halvings
    total = 0
    for c in plan.coeffs:
        total = c + (total * y >> shift)
    for _ in range(halvings):
        total = total * total >> w
    hi = total + plan.pad
    return total, hi + (hi * slack >> (w - 1)) + 1, n - w


def _exp_ends(lo: int, hi: int, exp: int, prec: int) -> tuple[int, int, int, int]:
    """exp over [lo 2^exp, hi 2^exp] for a result read at ``prec`` bits,
    as (a, ea, b, eb), the interval lying in [a 2^ea, b 2^eb].  Where the
    interval is narrower than 2^-prec, as -s log p at a point s, whose
    width is that of log p, one exp at lo serves both ends; otherwise hi
    takes its own."""
    plan = _exp_plan(prec)
    width = hi - lo
    if width.bit_length() + exp <= -prec:
        a, b, e = _exp_at(lo, exp, width, plan)
        return a, e, b, e
    a, _, ea = _exp_at(lo, exp, 0, plan)
    _, b, eb = _exp_at(hi, exp, 0, plan)
    return a, ea, b, eb


def _mpf(man: int, exp: int) -> tuple:
    """The mpf man 2^exp for an integer man > 0, normalized as
    ``from_man_exp`` normalizes it: an odd mantissa."""
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return 0, man, exp + zeros, man.bit_length()


def _signed(x: tuple) -> tuple[int, int]:
    """The mpf x as (m, e), x = m 2^e with m of the sign of x."""
    sign, man, exp, _ = x
    return -man if sign else man, exp


def _exp_mpf(a: int, ea: int, b: int, eb: int, prec: int) -> tuple:
    """exp over [a 2^ea, b 2^eb] as an mpf interval, by :func:`_exp_ends`."""
    e = min(ea, eb)
    a, ea, b, eb = _exp_ends(a << (ea - e), b << (eb - e), e, prec)
    return _mpf(a, ea), _mpf(b, eb)


def exp_iv(t: tuple, prec: int) -> tuple:
    """An interval enclosing exp over the mpf interval t, for a result
    read at ``prec`` bits."""
    return _exp_mpf(*_signed(t[0]), *_signed(t[1]), prec)


def prime_power(p: int, expo: tuple, prec: int) -> tuple:
    """p**expo = exp(expo * log p) for a prime p and an interval exponent,
    the product formed exactly from log p in units of 2^-(prec +
    GUARD_BITS), and its exp by :func:`_exp_ends`."""
    unit = prec + GUARD_BITS
    l_lo, l_hi = _log_units(p, unit)
    (a, ea), (b, eb) = _signed(expo[0]), _signed(expo[1])
    a *= l_hi if a < 0 else l_lo
    b *= l_lo if b < 0 else l_hi
    return _exp_mpf(a, ea - unit, b, eb - unit, prec)


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
    unit, prec = size.unit, size.prec
    one = 1 << unit
    (_, ma, ea, _), (_, mb, eb, _) = s
    s_lo, s_hi = _fixed(ma, ea + unit, False), _fixed(mb, eb + unit, True)
    # -s log p over [-s.b log_hi p, -s.a log_lo p], in units of 2^e
    e = min(ea, eb)
    ma, mb, e = ma << (ea - e), mb << (eb - e), e - unit
    powers = [None, ONE]  # mpf ends of the prime entries; None at composites
    ends = [None, (one, one)]  # every entry's, in units
    lo = hi = one
    for n in range(2, size.terms + 1):
        p = size.smallest_factor[n]
        if p == n:
            l_lo, l_hi = _log_units(p, unit)
            a, pa, b, pb = _exp_ends(-mb * l_hi, -ma * l_lo, e, prec)
            powers.append((_mpf(a, pa), _mpf(b, pb)))
            # p^-s < 1 and the ends have w > unit bits: right shifts
            a, b = a >> -(pa + unit), -((-b) >> -(pb + unit))
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
