"""Reference routes that the library replaced with faster ones giving the
same results bit for bit: each power of a prime took its own log, each
log local factor its own power, the greedy walk took one prime at a time,
and the CLI wrote each float of its output by its own ``float.__repr__``.

Also the library's former second routes to two quantities that it now
reaches only inside other computations: the tail of the log Euler product
(the lower end of a forbidden gap) and log sigma at the integer a greedy
walk's exponents spell out; and the greedy walk's target check at the
full kernel size alone, which the walk now makes at the sign size first.
``neighbours`` gives the doubles beside a boundary that these are tested at."""

import math

import numpy as np

from mpmath import iv

from sigma_density.brackets import Bracket
from sigma_density.errors import DomainError, IndeterminateError
from sigma_density.zeta import log_g_iv


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
    return Bracket.from_iv(log_g_iv(k, r_iv) - prefix)


def greedy_target_check(k: int, r: float, x: float):
    """The greedy walk's check of 0 <= x < log G_k(r) against the full-size
    bracket: None when the target is accepted, else the error it raises
    as (type, message)."""
    log_g = Bracket.from_iv(log_g_iv(k, iv.mpf(r)))
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
