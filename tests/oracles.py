"""Reference routes that the library replaced with faster ones giving the
same results bit for bit: each power of a prime took its own log, each
log local factor its own power, the greedy walk took one prime at a time,
and the CLI wrote each float of its output by its own ``float.__repr__``;
the zeta kernel ran on ``mpi_*`` calls, which pick each rounding by the
signs of their operands, and T's levels and sign test ran on ``mpmath.iv``
objects, each power of a prime by its own exp.

Also the library's former second routes to two quantities that it now
reaches only inside other computations: the tail of the log Euler product
(the lower end of a forbidden gap) and log sigma at the integer a greedy
walk's exponents spell out; and the greedy walk's target check at the
full kernel size alone, which the walk now makes at the sign size first.
``neighbours`` gives the doubles beside a boundary that these are tested at,
and ``first_difference`` compares long texts with an oracle's."""

import math

import numpy as np

from mpmath import iv
from mpmath.libmp import fone, ftwo, mpi_add, mpi_div, mpi_exp, mpi_mul, mpi_neg, mpi_sub

from sigma_density.brackets import Bracket
from sigma_density.errors import DomainError, IndeterminateError
from sigma_density.zeta import FULL_SIZE


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


def zeta_mpi(s, size=FULL_SIZE):
    """zeta(s) on ``mpi_*`` calls for an iv interval s, as an iv object,
    and its table of n^-s: the kernel before each step was written out as
    its pair of roundings."""
    prec = size.prec
    one = (fone, fone)
    s = s._mpi_
    minus_s = mpi_neg(s, prec)
    powers = [None, one]  # powers[n] = n^-s
    total = one
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
        total, mpi_div(mpi_mul(size.n, N_s, prec), mpi_sub(s, one, prec), prec), prec
    )
    total = mpi_sub(total, mpi_div(N_s, (ftwo, ftwo), prec), prec)
    rising = s  # s(s+1)...(s+2j-2), starting value for j = 1
    for coeff, (odd, even) in zip(size.coeffs, size.rising_steps):
        total = mpi_add(total, mpi_mul(mpi_mul(coeff, rising, prec), N_s, prec), prec)
        rising = mpi_mul(
            mpi_mul(rising, mpi_add(s, odd, prec), prec), mpi_add(s, even, prec), prec
        )
    remainder = mpi_mul(mpi_mul(size.remainder, rising, prec), N_s, prec)
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
    """(m, T bracket, gap ends or None) on iv objects: the T route before it
    read p^-r from zeta(r)'s table."""
    r_iv = iv.mpf(r)
    log_g = log_g_iv_oracle(k, r_iv)
    for m, head, prefix in levels_oracle(table, k, r_iv, ms):
        t = Bracket.from_iv(head - log_g + prefix)
        gap = None
        if t.strictly_positive():
            gap = Bracket.from_iv(log_g - prefix), Bracket.from_iv(head)
        yield m, t, gap


def log_g_bracket_oracle(k: int, r: float) -> Bracket:
    return Bracket.from_iv(log_g_iv_oracle(k, iv.mpf(r)))


def t_sign_oracle(table, k: int, m: int, r: float, size) -> int | None:
    """The certified sign of T_k(m, r) on iv objects: each x_i and
    x_i^{k+1} from its own exp and power, zeta at ``size``."""
    r_iv = iv.mpf(r)
    kept = dropped = iv.mpf(1)
    for i in range(1, m + 1):
        x = iv_pow(iv.mpf(table.nth(i)), -r_iv)
        kept *= 1 - x ** (k + 1)
        dropped *= 1 - x
    lhs = (1 + x) * zeta_mpi((k + 1) * r_iv, size)[0] * kept
    return Bracket.from_iv(lhs - zeta_mpi(r_iv, size)[0] * dropped).certified_sign()


def greedy_target_check(k: int, r: float, x: float):
    """The greedy walk's check of 0 <= x < log G_k(r) against the full-size
    bracket: None when the target is accepted, else the error it raises
    as (type, message)."""
    log_g = log_g_bracket_oracle(k, r)
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


def greedy_walk_loop(primes, k, r, x):
    """The greedy walk over the array ``primes``, one prime at a time, as
    lists: (alphas, C, D, E).  At each prime it takes the largest
    alpha <= k whose log partial local factor keeps the sum at or below
    x, else 0."""
    powers = primes.astype(np.float64) ** (-r)
    partial_logs = np.log(
        np.cumsum(np.vstack([np.ones_like(powers)] + [powers**a for a in range(1, k + 1)]), axis=0)
    )
    alphas, C, D, E = [], [], [], []
    c = e = 0.0
    for logs in zip(*partial_logs.tolist()):
        alpha = next((a for a in range(k, 0, -1) if c + logs[a] <= x), 0)
        c += logs[alpha]
        d = logs[k] - logs[alpha]
        e += d
        alphas.append(alpha)
        C.append(c)
        D.append(d)
        E.append(e)
    return alphas, C, D, E


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
