"""Reference routes that the library replaced with faster ones giving the
same results bit for bit: the prime table sieved a numpy mask of every
integer, each log local factor took its own power, the
greedy walk took one prime at a time and scanned each prime's exponents
from k down, the census enumerated one n at a time and then divided the
primes up to sqrt(bound) out of an array of cofactors, and the CLI wrote
each float of its output by its own ``float.__repr__``.

The seed route of the certified numbers, which the library's brackets
must equal or lie inside: the zeta kernel on ``mpi_*`` calls at the
size's precision, which pick each rounding by the signs of their
operands, each p^-s by an interval exp at each end, and T's levels and
sign test on ``mpmath.iv`` objects, each power of a prime by its own log
and exp.  ``seed_density_verdict`` is its verdict, and ``t_mpmath`` and
``taylor_exp`` are references outside the library's arithmetic: T from
mpmath's zeta, and exp from Python integers alone.

Also the library's former second routes to two quantities that it now
reaches only inside other computations: the tail of the log Euler product
(the lower end of a forbidden gap) and log sigma at the integer a greedy
walk's exponents spell out; the greedy walk's target check at the
full kernel size alone, which the walk now makes at the sign size first;
the limit equation's closed form, which the solver now reaches as T
at k = inf; and the level selector solved for each k, which the library
now takes from a rule that ``density.check_selector`` proves for every k.
``neighbours`` gives the doubles beside a boundary that these are tested at,
and ``first_difference`` compares long texts with an oracle's.

Also the float surrogate V, which no command prints: its truncated tail
sum, its root by float bisection, and the two ``Bracket`` helpers only it
and the tests read, ``contains`` and ``from_value_error``.

Every ``mpmath.iv`` object here and in the tests is built at 200 bits, the
precision of the library's certified route, which conftest.py sets."""

import functools
import math
from fractions import Fraction

import numpy as np

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

from sigma_density import explorer, solver
from sigma_density.brackets import Bracket, check_eps
from sigma_density.errors import DomainError, IndeterminateError, check_k
from sigma_density.primes import sieve
from sigma_density.zeta import FULL_SIZE, log_g_iv, log_prime, prime_power, to_iv, zeta_iv


def iv_pow(base, expo):
    """base**expo for interval base > 0 and arbitrary interval exponent."""
    return iv.exp(expo * iv.log(base))


def log_local_factor_iv(p: int, k: int, r_iv):
    """Interval enclosure of log(sum_{j=0}^k p^{-jr})."""
    x = iv_pow(iv.mpf(p), -r_iv)
    return iv.log((1 - x ** (k + 1)) / (1 - x))


def tail_bracket(table, k: int, m: int, r: float) -> Bracket:
    """The tail sum_{i>m} log(local factor at p_i) as a bracket, by the
    exact rearrangement log G_k(r) minus the prefix i <= m."""
    r_iv = iv.mpf(r)
    prefix = sum((log_local_factor_iv(table.nth(i), k, r_iv) for i in range(1, m + 1)), iv.mpf(0))
    return Bracket.from_iv(log_g_iv_oracle(k, r_iv) - prefix)


def _exact(n, prec):
    return from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)


def _coefficient(j, terms, prec):
    """B_{2j}/(2j)! * N^{1-2j} as an interval at ``prec``."""
    p, q = mpmath.bernfrac(2 * j)
    denominator = q * math.factorial(2 * j) * terms ** (2 * j - 1)
    return mpi_div(_exact(int(p), prec), _exact(int(denominator), prec), prec)


def zeta_mpi(s, size=FULL_SIZE):
    """zeta(s) on ``mpi_*`` calls for an iv interval s, as an iv object,
    and its table of n^-s: the kernel before it moved to integers in units
    of 2^-F, with an interval exp at each end of each p^-s."""
    prec = size.prec
    one = (fone, fone)
    s = s._mpi_
    minus_s = mpi_neg(s, prec)
    powers = [None, one]  # powers[n] = n^-s
    total = one
    for n in range(2, size.terms + 1):
        p = size.smallest_factor[n]
        if p == n:
            power = mpi_exp(mpi_mul(minus_s, log_prime(p, prec), prec), prec)
        else:
            power = mpi_mul(powers[p], powers[n // p], prec)
        powers.append(power)
        total = mpi_add(total, power, prec)
    N_s = powers[size.terms]
    total = mpi_add(
        total,
        mpi_div(mpi_mul(_exact(size.terms, prec), N_s, prec), mpi_sub(s, one, prec), prec),
        prec,
    )
    total = mpi_sub(total, mpi_div(N_s, (ftwo, ftwo), prec), prec)
    rising = s  # s(s+1)...(s+2j-2), starting value for j = 1
    for j in range(1, size.corrections + 1):
        coeff = _coefficient(j, size.terms, prec)
        total = mpi_add(total, mpi_mul(mpi_mul(coeff, rising, prec), N_s, prec), prec)
        odd, even = _exact(2 * j - 1, prec), _exact(2 * j, prec)
        rising = mpi_mul(
            mpi_mul(rising, mpi_add(s, odd, prec), prec), mpi_add(s, even, prec), prec
        )
    remainder = mpi_mul(_coefficient(size.corrections + 1, size.terms, prec), (fnone, fone), prec)
    remainder = mpi_mul(mpi_mul(remainder, rising, prec), N_s, prec)
    return iv.make_mpf(mpi_add(total, remainder, prec)), powers


def log_g_iv_oracle(k: int, r_iv, size=FULL_SIZE):
    """log G_k(r) on iv objects at iv.prec, from two :func:`zeta_mpi` calls."""
    return iv.log(zeta_mpi(r_iv, size)[0]) - iv.log(zeta_mpi((k + 1) * r_iv, size)[0])


def levels_oracle(table, k: int, r_iv, ms):
    """(m, head, prefix) as iv objects, each p^-r by its own exp: head =
    log(1 + p_m^-r), prefix = sum_{i<=m} of the log local factor at p_i."""
    prefix = iv.mpf(0)
    done = 0
    for m in ms:
        for i in range(done + 1, m + 1):
            x = iv_pow(iv.mpf(table.nth(i)), -r_iv)
            prefix += iv.log((1 - x ** (k + 1)) / (1 - x))
        done = m
        yield m, iv.log(1 + x), prefix


def t_levels_oracle(table, k: int, r: float, ms):
    """(m, T bracket, gap core or None) on iv objects: the T route before it
    read p^-r from zeta(r)'s table.  The core is the doubles (log G - prefix
    rounded up, head rounded down)."""
    r_iv = iv.mpf(r)
    log_g = log_g_iv_oracle(k, r_iv)
    for m, head, prefix in levels_oracle(table, k, r_iv, ms):
        t = Bracket.from_iv(head - log_g + prefix)
        gap = None
        if t.strictly_positive():
            gap = Bracket.from_iv(log_g - prefix).hi, Bracket.from_iv(head).lo
        yield m, t, gap


def seed_density_verdict(table, k: int, r: float) -> str:
    """density_report's verdict from the T brackets of the seed route,
    :func:`t_levels_oracle`, at m in {1, 2, 4}."""
    ts = [t for _, t, _ in t_levels_oracle(table, k, r, (1, 2, 4))]
    if any(t.strictly_positive() for t in ts):
        return "not_dense"
    if r <= 2.0 and all(t.nonpositive() for t in ts):
        return "dense"
    return "undetermined"


def t_mpmath(table, k: int, m: int, r: float, digits: int = 60):
    """T_k(m, r) from mpmath's zeta and powers, to about ``digits`` digits:
    the working precision adds the digits that log G_k(r) = log zeta(r) -
    log zeta((k+1)r), about 2^-r, cancels."""
    with mpmath.workdps(digits + int(0.31 * r) + 10):
        r = mpmath.mpf(r)
        log_g = mpmath.log(mpmath.zeta(r)) - mpmath.log(mpmath.zeta((k + 1) * r))
        prefix = mpmath.mpf(0)
        for i in range(1, m + 1):
            x = mpmath.power(table.nth(i), -r)
            prefix += mpmath.log((1 - x ** (k + 1)) / (1 - x))
        return +(mpmath.log1p(x) - log_g + prefix)


def log_g_bracket_oracle(k: int, r: float) -> Bracket:
    return Bracket.from_iv(log_g_iv_oracle(k, iv.mpf(r)))


def t_sign_oracle(table, k: int | float, m: int, r: float, size) -> int | None:
    """The certified sign of T_k(m, r) by a log-free comparison of two
    products, on iv objects:

        (1 + x_m) zeta((k+1)r) prod_{i<=m} (1 - x_i^{k+1})
            > zeta(r) prod_{i<=m} (1 - x_i),   x_i = p_i^-r,

    each x_i and x_i^{k+1} from its own exp and power, zeta at ``size``.
    At k = inf, x_i^{k+1} = 0 and zeta((k+1)r) = 1.  ``density.t_sign``
    multiplies the local factors LF_k(p_i) = (1 - x_i^{k+1})/(1 - x_i)
    instead, the same test divided by the positive prod (1 - x_i), so this
    is an independent second form of the same sign, with no division."""
    r_iv = iv.mpf(r)
    kept = dropped = iv.mpf(1)
    for i in range(1, m + 1):
        x = iv_pow(iv.mpf(table.nth(i)), -r_iv)
        if k != math.inf:
            kept *= 1 - x ** (k + 1)
        dropped *= 1 - x
    zeta_kr = 1 if k == math.inf else zeta_mpi((k + 1) * r_iv, size)[0]
    lhs = (1 + x) * zeta_kr * kept
    return Bracket.from_iv(lhs - zeta_mpi(r_iv, size)[0] * dropped).certified_sign()


def limit_equation(r: float) -> Bracket:
    """The limit equation (2^r/(2^r - 1)) ((3^r + 1)/(3^r - 1)) = zeta(r)
    in log form, lhs - log zeta(r), as a bracket on interval tuples at
    FULL_SIZE.prec, with 2^r and 3^r by their own exps: T_inf(2, r) by
    its own formula."""
    prec = FULL_SIZE.prec
    one = (fone, fone)
    r_iv = to_iv(r)
    p2 = prime_power(2, r_iv, prec)
    p3 = prime_power(3, r_iv, prec)
    lhs = mpi_add(
        mpi_log(mpi_div(p2, mpi_sub(p2, one, prec), prec), prec),
        mpi_log(mpi_div(mpi_add(p3, one, prec), mpi_sub(p3, one, prec), prec), prec),
        prec,
    )
    return Bracket.from_iv(mpi_sub(lhs, mpi_log(zeta_iv(r_iv)[0], prec), prec))


def selector_oracle(table, k) -> int:
    """The m in {1, 2, 4} of the least threshold of T_k(m, .), each solved
    at DEFAULT_EPS; its bracket must lie below the other two."""
    roots = {m: solver.r_threshold(table, k, m, solver.DEFAULT_EPS).value for m in (1, 2, 4)}
    best = min(roots, key=lambda m: roots[m].hi)
    assert all(roots[best].hi < roots[m].lo for m in roots if m != best), (k, roots)
    return best


def greedy_target_check(k: int, r: float, x: float):
    """The greedy walk's check of 0 <= x < log G_k(r) against the full-size
    bracket of ``zeta.log_g_iv`` alone: None when the target is accepted,
    else the error it raises as (type, message).  x = 0 is accepted
    outright, as G_k(r) > 1."""
    if x == 0:
        return None
    log_g = Bracket.from_iv(log_g_iv(k, to_iv(r))[0])
    if x >= log_g.hi:
        return DomainError, f"target {x} is not below log G_{k}({r}) = {log_g.hi}"
    if x >= log_g.lo:
        return IndeterminateError, f"target {x} falls inside the log G bracket [{log_g.lo}, {log_g.hi}]"
    return None


def log_sigma_of_alphas(table, alphas, r: float) -> float:
    """log sigma_{-r}(n) at n = prod_l p_l^alphas[l - 1], the sum over the
    primes of n of log(1 + p^-r + ... + p^-ar) in double precision."""
    total = 0.0
    for l, a in enumerate(alphas, 1):
        if a:
            x = float(table.nth(l)) ** -r
            total += math.log1p(x * (1.0 - x**a) / (1.0 - x))
    return total


# Relative slack for mpmath's values at 300 bits, far below the width of
# any enclosure the kernel returns (2^-216 relative at the least).
REFERENCE_SLACK = mpmath.ldexp(1, -290)


def encloses(enclosure, lo, hi):
    """Whether an interval tuple holds [lo, hi], positive reals that
    mpmath computed at 300 bits, up to REFERENCE_SLACK."""
    a, b = enclosure
    with mpmath.workprec(300):
        return mpmath.mpf(a) <= lo * (1 + REFERENCE_SLACK) and hi * (1 - REFERENCE_SLACK) <= mpmath.mpf(b)


def enclosure_width(enclosure):
    a, b = enclosure
    with mpmath.workprec(2000):
        return mpmath.mpf(b) - mpmath.mpf(a)


def mpf_fraction(x) -> Fraction:
    """The exact value of an mpf tuple."""
    sign, man, exp, _ = x
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def taylor_exp(x, bits: int = 400) -> tuple[Fraction, Fraction]:
    """Rational bounds (lo, hi) on exp(x) for an mpf x, from Python
    integers alone, about 2^-bits apart relative: exp(|x|) is
    exp(y)^(2^k) with y = |x|/2^k <= 1/2, exp(y) the Taylor series in
    units of 2^-w, its terms rounded down for lo and up for hi, where
    each term is at most half the one before, so hi adds the last term
    again for the tail; then k squarings, rounded the same ways, and
    exp(-|x|) = 1/exp(|x|)."""
    sign, man, exp, bc = x
    if not man:
        return Fraction(1), Fraction(1)
    k = max(0, exp + bc + 1)
    w = bits + k + 16
    one = 1 << w
    shift = exp - k + w
    y = {False: man << shift if shift >= 0 else man >> -shift}
    y[True] = man << shift if shift >= 0 else -((-man) >> -shift)
    ends = {}
    for up in (False, True):
        total = term = one
        n = 0
        while term > (1 if up else 0):
            n += 1
            term = -((-term * y[up]) // (n << w)) if up else (term * y[up]) // (n << w)
            total += term
        if up:
            total += term
        for _ in range(k):
            total = -((-total * total) >> w) if up else (total * total) >> w
        ends[up] = total
    if sign:
        return Fraction(one, ends[True]), Fraction(one, ends[False])
    return Fraction(ends[False], one), Fraction(ends[True], one)


def neighbours(x, count):
    """The ``count`` doubles each side of x, and x."""
    below = [x]
    above = [x]
    for _ in range(count):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return [*reversed(below[1:]), *above]


def repr_join(values, separator, row_separator=None, width=None):
    """``float.__repr__`` of each of ``values`` with ``separator`` between
    them, or ``row_separator`` after every ``width`` of them: the join
    json gives, which the CLI's float writer must match byte for byte."""
    values = [float(v) for v in values]
    if not all(map(math.isfinite, values)):
        raise ValueError("Out of range float values are not JSON compliant")
    texts = map(float.__repr__, values)
    if width is None:
        return separator.join(texts)
    return row_separator.join(map(separator.join, zip(*[texts] * width)))


def eratosthenes(bound):
    """The primes up to ``bound`` inclusive, as an int64 array, sieved on a
    numpy bool mask of every integer: the table's sieve above
    ``FIRST_SIEVE_BOUND`` before one odd-only sieve served every bound."""
    mask = np.ones(bound + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def greedy_walk_loop(primes, k, r, x):
    """The greedy walk over the array ``primes``, one prime at a time, as
    lists: (alphas, C, D, E).  At each prime it takes the largest
    alpha <= k whose log partial local factor keeps the sum at or below
    x, else 0; at x = 0 that is 0 at every prime, since each log local
    factor is positive, though its float log may read 0.0."""
    powers = primes.astype(np.float64) ** (-r)
    partial_logs = np.log(
        np.cumsum(np.vstack([np.ones_like(powers)] + [powers**a for a in range(1, k + 1)]), axis=0)
    )
    alphas, C, D, E = [], [], [], []
    c = e = 0.0
    for logs in zip(*partial_logs.tolist()):
        alpha = next((a for a in range(k, 0, -1) if c + logs[a] <= x), 0) if x else 0
        c += logs[alpha]
        d = logs[k] - logs[alpha]
        e += d
        alphas.append(alpha)
        C.append(c)
        D.append(d)
        E.append(e)
    return alphas, C, D, E


def sigma_values_loop(k, r, bound):
    """Restricted divisor sums of every admissible n <= bound, by direct
    enumeration with a smallest-prime-factor sieve: the census's original
    loop, kept as the oracle of ``explorer._sigma_values``."""
    spf = np.zeros(bound + 1, dtype=np.int64)
    for p in range(2, int(bound**0.5) + 1):
        if spf[p] == 0:
            spf[p * p :: p][spf[p * p :: p] == 0] = p
    values = [1.0]
    for n in range(2, bound + 1):
        m = n
        value = 1.0
        admissible = True
        while m > 1:
            p = int(spf[m]) or m
            exponent = 0
            while m % p == 0:
                m //= p
                exponent += 1
            if exponent > k:
                admissible = False
                break
            x = float(p) ** (-r)
            value *= (1.0 - x ** (exponent + 1)) / (1.0 - x)
        if admissible:
            values.append(value)
    return np.unique(np.asarray(values))


def sigma_values_cofactor(k, r, bound):
    """``sigma_values_loop`` by the census's former array sieve, fast enough
    for bound 1e6: ``value[n]`` takes the factors of n's primes p <=
    sqrt(bound), and of 2, through a gather by n's exponent of p, and
    ``cofactor[n]``, n with those primes divided out, is 1 or the prime
    above sqrt(bound) whose factor goes in last, from a table indexed by
    ``cofactor >> 1``."""
    root = math.isqrt(bound)
    small = sieve(root).primes.tolist() if root >= 2 else [2]
    cofactor = np.arange(bound + 1, dtype=np.int32)
    value = np.ones(bound + 1)
    for p in small:
        powers = [p]
        while powers[-1] * p <= bound:
            powers.append(powers[-1] * p)
        factors = np.zeros(len(powers) + 1)
        for e in range(1, min(k, len(powers)) + 1):
            factors[e] = explorer._local_factor(p, e, r)
        # exponent[j - 1] is the exponent of p in n = p * j.
        exponent = np.zeros(bound // p, dtype=np.int8)
        for q in powers:
            exponent[q // p - 1 :: q // p] += 1
            cofactor[q::q] //= p
        value[p::p] *= factors[exponent]
    lookup = np.ones((bound >> 1) + 1)
    n = np.arange(root + 1, bound + 1, dtype=np.int32)
    # Past sqrt(bound), n is its own cofactor exactly when n is prime.
    large = n[cofactor[root + 1 :] == n]
    lookup[large >> 1] = [(1.0 - x**2) / (1.0 - x) for x in [float(q) ** -r for q in large.tolist()]]
    value *= lookup[cofactor >> 1]
    value[0] = 0.0
    return np.unique(value[value > 0.0])


def first_difference(got, expected):
    """The first line where two texts differ, or None: a diff of whole
    outputs this long would take pytest minutes to print."""
    if got == expected:
        return None
    got_lines, expected_lines = got.splitlines(True), expected.splitlines(True)
    for i, (a, b) in enumerate(zip(got_lines, expected_lines)):
        if a != b:
            return i, a, b
    return len(got_lines), len(expected_lines)


# The cell cover on iv objects: each claim maps an iv cell to an iv
# enclosure, and each power of each cell takes its own exp.
def _iv_log_prime(p):
    return iv.make_mpf(log_prime(p, iv.prec))


def _iv_power(p, expo):
    """p**expo for an iv interval exponent, as an iv object: its lower end
    from the power at the exponent's lower end, its upper end from the
    one at its upper end, each by ``zeta.prime_power`` at a point."""
    u, v = expo._mpi_
    return iv.make_mpf((prime_power(p, (u, u), iv.prec)[0], prime_power(p, (v, v), iv.prec)[1]))


def cover_x(p, r):
    """p^-r for an iv interval r."""
    return _iv_power(p, -r)


def log_over_oracle(p, x):
    """log p / (p^x + 1), decreasing in x."""
    return _iv_log_prime(p) / (_iv_power(p, x) + 1)


def log_sq_over_oracle(p, x):
    """(log p)^2 / (p^x + 2 + p^-x)."""
    q = _iv_power(p, x)
    return _iv_log_prime(p) ** 2 / (q + 2 + 1 / q)


def rise_oracle(table, m, n, term, x):
    """sum_{i=m+1}^{m+n} term(p_i, x.b) - term(p_m, x.a) on iv objects."""
    rest = sum((term(table.nth(i), x.b) for i in range(m + 1, m + n + 1)), iv.mpf(0))
    return rest - term(table.nth(m), x.a)


def cover_claims_oracle(table):
    """The claim of each of check_inequalities' and check_monotonicity's
    checks, by name, on iv cells."""
    x = cover_x
    claims = {
        "two_vs_three_lower": lambda r: (1 + (x3 := x(3, r))) * (1 + x3 + x(3, 2 * r))
        - (1 + x(2, r)),
        "three_vs_five_seven": lambda r: (1 + x(3, r)) - ((1 + (x7 := x(7, r))) / (1 - x7))
        / (1 - x(5, r)),
        "pair_product_m2": lambda r: (1 + x(2, r)) / (1 + (x3 := x(3, r))) - (1 + x3),
        "pair_product_m4": lambda r: (1 + x(2, r))
        / ((1 + x(3, r)) * (1 + x(5, r)) * (1 + (x7 := x(7, r))))
        - (1 + x7),
        "square_dominates_zeta": lambda r: (1 + x(2, r)) ** 2 - iv.make_mpf(zeta_iv(r._mpi_)[0]),
    }
    for m in (1, 2, 4):
        claims[f"t_increasing_m{m}"] = functools.partial(rise_oracle, table, m, 10, log_over_oracle)
        claims[f"j_increasing_m{m}"] = functools.partial(rise_oracle, table, m, 6, log_sq_over_oracle)
        claims[f"j_negative_m{m}"] = functools.partial(rise_oracle, table, m, 6, log_over_oracle)
    return claims


# The truncated surrogate V and its float root.
V_TRUNCATION = 100_000


def v_func(table, k: int, m: int, r: float) -> float:
    """The truncated surrogate for T: the tail is cut at the 10^5-th prime.

    Plain double precision by design; V is a computational surrogate, not
    a certified quantity.  V >= T always, since truncation drops positive
    terms from the subtracted sum.  Unlike T, the sum is finite, so any
    r > 0 is admissible; sign checks at r = 1 are meaningful.
    """
    check_k(k)
    check_k(m, "m", infinite=False)
    if not r > 0:
        raise DomainError(f"r must be positive, got {r}")
    if m >= V_TRUNCATION:
        raise DomainError(f"m must be below the truncation point {V_TRUNCATION}")
    pm = float(table.nth(m))
    p = table.slice(m + 1, V_TRUNCATION).astype(np.float64)
    x = p ** (-r)
    local = (1.0 - x ** (k + 1)) / (1.0 - x)
    return math.log1p(pm ** (-r)) - float(np.sum(np.log(local)))


def from_value_error(value: float, abs_err: float) -> Bracket:
    """Enclosure of value +- abs_err, padded one ulp outward."""
    return Bracket(
        math.nextafter(value - abs_err, -math.inf),
        math.nextafter(value + abs_err, math.inf),
    )


def contains(bracket: Bracket, x: float) -> bool:
    return bracket.lo <= x <= bracket.hi


def r1_surrogate(table, eps: float = 1e-8) -> solver.RootResult:
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

    a, b, iterations = solver._walk(lambda r: -1 if v(r) < 0 else 1, 1.5, 7.0 / 3.0, eps)
    mid = 0.5 * (a + b)
    return solver.RootResult(
        value=Bracket(a, b),
        iterations=iterations,
        residual=from_value_error(v(mid), 1e-11),
        method="float64 bisection on truncated surrogate",
    )
