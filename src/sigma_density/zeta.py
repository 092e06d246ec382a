"""Certified enclosures of zeta(s) and of log G_k(r), where
G_k(r) = zeta(r)/zeta((k+1)r) is the supremum of the restricted divisor
sum (zeta(r) at k = inf), and the interval powers p^-s of primes.

zeta is evaluated by Euler-Maclaurin summation with the classical
remainder bound (for real r > 1 the remainder is no larger in magnitude
than the first omitted correction term), or, where the integral tail is
below the kernel's unit, by the direct sum.  Every certified interval is
a pair (lo, hi) of Python integers in units of 2^-F, F being its kernel
size's ``unit``, each lower end rounded down and each upper end up, and
every exponent s is a pair of exact integers in units of
2^-EXPONENT_BITS (:func:`exponent`): every double above 1 is a multiple
of that unit, and so is (k+1) times one.  The one kernel,
:func:`zeta_iv`, has two fixed sizes: FULL_SIZE (F = 216) feeds every
bracket the program prints, and SIGN_SIZE (F = 96), about half the cost,
only the solver's sign test and the walk's target check.  Besides zeta(s)
it returns its table of n^-s for n <= N, each prime's as
:func:`prime_power` gives it, so the T route reads p^-r and p^-(k+1)r for
those primes from the evaluations of zeta(r) and zeta((k+1)r) that log G
makes anyway (:func:`log_g_iv` returns both tables), with the same bits
as for any other prime.

Every exp and log on a certified route is this module's own, on Python
integers.  exp (:func:`_exp_at`) reduces by n ln 2 and K halvings, sums a
Taylor series and squares K times, each error bounded in its docstring;
it serves the kernel's table, :func:`prime_power` and :func:`exp_iv`.
log (:func:`_log_at`, :func:`log_iv`) is an atanh series, as are ln 2 and
log p (:func:`_ln2`, :func:`log_units`).  The four pair helpers
:func:`add`, :func:`sub`, :func:`mul` and :func:`div` carry the rest of
the arithmetic; callers turn an enclosure into a printed bracket with
:meth:`~sigma_density.brackets.Bracket.from_units`.  mpmath serves only
the kernel's Bernoulli numbers (``bernfrac``, exact rationals).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import mpmath

# Bits beyond a kernel size's precision in its fixed-point unit 2^-F and in
# the integer log p that every p^-s is taken from, F = prec + GUARD_BITS.
# log p is then at most 2 units wide, so -s log p at a point s is narrower
# than 2^-prec, and one exp serves both of its ends, for s up to 2^15,
# past every (k+1)r <= 202 the solver and the table reach (9 bits would
# still do there).
GUARD_BITS = 16

# Every exponent s is an integer in units of 2^-EXPONENT_BITS.
EXPONENT_BITS = 52


def exponent(lo: float, hi: float | None = None) -> tuple[int, int]:
    """The cell [lo, hi] of doubles at or above 1 (the point lo where hi
    is None) as an exponent pair, exactly: a double x = m 2^e, m in
    [1/2, 1), is m 2^53 times 2^(e - 1) units."""
    (m, e), (n, f) = math.frexp(lo), math.frexp(lo if hi is None else hi)
    return int(m * 2**53) << (e - 1), int(n * 2**53) << (f - 1)


def add(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x + y for two pairs at one unit."""
    return x[0] + y[0], x[1] + y[1]


def sub(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x - y for two pairs at one unit."""
    return x[0] - y[1], x[1] - y[0]


def mul(x: tuple[int, int], y: tuple[int, int], unit: int) -> tuple[int, int]:
    """x y in units of 2^-unit, for positive x and y only (zeta, LF,
    1 +- x, log p, q + 1): the lower ends pair, and so do the upper."""
    return (x[0] * y[0]) >> unit, -((-x[1] * y[1]) >> unit)


def div(x: tuple[int, int], y: tuple[int, int], unit: int) -> tuple[int, int]:
    """x / y in units of 2^-unit, for positive x and y only, as :func:`mul`."""
    return (x[0] << unit) // y[1], -((-x[1] << unit) // y[0])


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
    its width, 4J + 4 units for J <= (bits + guard)/3 + 1 terms, and n
    times ln 2's for |n| < 64, stay below one unit at ``bits``, so the
    ends rounded out to ``bits`` are at most 2 units apart."""
    return bits.bit_length() + 5


@cache
def _ln2(bits: int) -> tuple[int, int]:
    """ln 2 = 2 atanh(1/3) in units of 2^-bits, at most 2 units wide."""
    guard = _guard(bits)
    lo, hi = _atanh_series(1, 3, bits + guard)
    return lo >> guard, -((-hi) >> guard)


def _log_at(man: int, exp: int, bits: int) -> tuple[int, int]:
    """log(man 2^exp) for an integer man > 0 in units of 2^-bits, at most
    2 units wide: n ln 2 + 2 atanh((man - 2^e)/(man + 2^e)), where
    2^e <= man < 2^(e+1) and n = e + exp, so the atanh lies in [0, ln 2).
    For n < 0, a value below 1 (as rounding can put the lower end of a
    value at or above 1), n times ln 2's upper end is the lower bound and
    n times its lower end the upper.  Past |n| = 64, ln 2 takes a guard
    bit for each further bit of n."""
    e = man.bit_length() - 1
    n = e + exp
    guard = _guard(bits) + max(0, abs(n).bit_length() - 6)
    l2_lo, l2_hi = _ln2(bits + guard)
    if n < 0:
        l2_lo, l2_hi = l2_hi, l2_lo
    a_lo, a_hi = _atanh_series(man - (1 << e), man + (1 << e), bits + guard)
    return (n * l2_lo + a_lo) >> guard, -((-(n * l2_hi + a_hi)) >> guard)


@cache
def log_units(p: int, bits: int) -> tuple[int, int]:
    """log p for an integer p >= 2 in units of 2^-bits, at most 2 units
    wide (:func:`_log_at`)."""
    return _log_at(p, 0, bits)


def log_iv(x: tuple[int, int], unit: int) -> tuple[int, int]:
    """log over the pair x of positive values, both in units of 2^-unit:
    one series at the lower end (:func:`_log_at`), and, log being concave,
    log hi <= log lo + (hi - lo)/lo for the upper."""
    lo, hi = x
    a, b = _log_at(lo, -unit, unit)
    return a, b - (((lo - hi) << unit) // lo)


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


def exp_iv(x: float, prec: int) -> tuple[int, int, int]:
    """exp(x) for a double x, read at ``prec`` bits, with its exact dyadic
    ends: (lo, hi, unit), exp(x) lying in [lo 2^-unit, hi 2^-unit]."""
    man, denominator = x.as_integer_ratio()
    a, ea, b, eb = _exp_ends(man, man, 1 - denominator.bit_length(), prec)
    e = min(ea, eb)
    return a << (ea - e), b << (eb - e), -e


def prime_power(p: int, expo: tuple[int, int], size: KernelSize) -> tuple[int, int]:
    """p**expo = exp(expo log p) for a prime p over an exponent pair, in
    units of 2^-size.unit: the product formed exactly from log p in those
    units, its exp by :func:`_exp_ends` at size.prec, and each end rounded
    outward to the unit."""
    unit = size.unit
    l_lo, l_hi = log_units(p, unit)
    a, b = expo
    a *= l_hi if a < 0 else l_lo
    b *= l_lo if b < 0 else l_hi
    a, ea, b, eb = _exp_ends(a, b, -EXPONENT_BITS - unit, size.prec)
    return _fixed(a, ea + unit, False), _fixed(b, eb + unit, True)


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


def zeta_iv(s: tuple[int, int], size: KernelSize = FULL_SIZE) -> tuple[tuple[int, int], list]:
    """Enclosure of zeta(s) over an exponent pair s with s > 1, in units
    of 2^-size.unit:

        zeta(s) = sum_{n<=N} n^-s + N^{1-s}/(s-1) - N^-s/2
                  + sum_{j<=M} B_{2j}/(2j)! * s(s+1)...(s+2j-2) * N^{1-s-2j}
                  + R_M,

    with N and M fixed by ``size``, and its table ``powers``: powers[n] =
    n^-s for n <= N (None at n = 0), a pair at the same unit, each prime's
    as :func:`prime_power` gives it.  Every even derivative of
    f(x) = x^-s is positive on [N, oo) for every real s > 1 and N >= 1, so
    the classical remainder theorem puts R_M between 0 and the first
    omitted term (j = M + 1).  Where N^{1-s}/(s-1) is at most one unit (s
    above about 1 + F/log2 N), sum_{n>N} n^-s lies in [0, N^{1-s}/(s-1)],
    each term being below its integral over [n - 1, n], and the
    corrections are dropped: the cost does not grow with s.

    Only p^-s for the primes p <= N takes an exp; every other n^-s is
    the product of two earlier powers, and N^{1-s-2j} = N^{1-2j} * N^-s.
    The sums run on integers in units of 2^-F, every lower end rounded
    down (``>>``) and every upper end up (``-((-x) >> F)``); each factor
    but B_{2j}, whose sign alternates, and the remainder's [-1, 1] is
    positive, which fixes the pairing of the ends.
    """
    unit = size.unit
    one = 1 << unit
    s_lo, s_hi = s[0] << (unit - EXPONENT_BITS), s[1] << (unit - EXPONENT_BITS)
    minus_s = -s[1], -s[0]
    powers = [None, (one, one)]
    lo = hi = one
    for n in range(2, size.terms + 1):
        p = size.smallest_factor[n]
        if p == n:
            a, b = prime_power(p, minus_s, size)
        else:
            (pa, pb), (qa, qb) = powers[p], powers[n // p]
            a, b = (pa * qa) >> unit, -((-pb * qb) >> unit)
        powers.append((a, b))
        lo += a
        hi += b
    na, nb = powers[size.terms]
    # N * N^-s / (s - 1): one integer division for each end
    tail_hi = -((-(size.terms * nb) << unit) // (s_lo - one))
    if tail_hi <= 1:
        return (lo, hi + tail_hi), powers
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
    return (lo - m, hi + m), powers


def log_g_iv(k: int | float, r: tuple, size: KernelSize = FULL_SIZE) -> tuple[tuple, list, list | None]:
    """Enclosure of log G_k(r), G_k(r) = zeta(r)/zeta((k+1)r), over an
    exponent pair r, in units of 2^-size.unit, from two zeta_iv calls of
    ``size`` (one at k = inf, where zeta((k+1)r) = 1) and their logs
    (:func:`log_iv`), with the tables of p^-r and of p^-(k+1)r that the
    two calls return (None for the second at k = inf)."""
    unit = size.unit
    zeta_r, powers = zeta_iv(r, size)
    log_g, powers_k = log_iv(zeta_r, unit), None
    if k != math.inf:
        zeta_kr, powers_k = zeta_iv(((k + 1) * r[0], (k + 1) * r[1]), size)
        log_g = sub(log_g, log_iv(zeta_kr, unit))
    return log_g, powers, powers_k
