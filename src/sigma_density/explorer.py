"""Constructive approximation and empirical gap mapping.

The greedy procedure walks the primes in order and, at each one, takes
the largest exponent alpha <= k whose local-factor log keeps the partial
sum at or below the target.  In the dense regime the partial sums
converge to the target; in the non-dense regime the residual can stall,
which is exactly the gap phenomenon the census maps empirically.  The
census prints beside its empirical gaps the certified ones of
:func:`analytic_gap_scan`: the forbidden log-intervals of the levels
where T is certified positive, and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .brackets import Bracket
from .density import t_levels
from .errors import CapacityError, DomainError, IndeterminateError, PrecisionError, check_k, check_r
from .primes import PrimeTable, sieve
from .zeta import SIGN_SIZE, exp_iv, log_g_iv, to_iv

if TYPE_CHECKING:
    import numpy as np

# Largest census bound, from measurement (Python 3.11, numpy 2.4, one
# process on a 2-core x86-64 host).  range_census takes 0.05 s at 1e6 and
# 0.32 s at 5e6.  The command's worst case is where every n is admissible,
# its value distinct and every spacing a gap row:
# `census --k 1000 --r 1.0001 --bound 5000000 --resolution 1e-300` as JSON
# to --out (642 MB, written a block at a time) takes 3.6-3.8 s and 0.38 GB
# resident, range_census a 0.36 GB peak under tracemalloc (72 bytes an
# integer).  At the default resolution the same request writes 161 MB in
# 1.1-1.2 s at 0.13 GB resident, with a 0.10 GB peak under tracemalloc.
CENSUS_MAX_BOUND = 5_000_000
# Largest (k + 1) * steps of a greedy walk: its table of partial local
# factors holds that many doubles.  Under tracemalloc a walk on a sieved
# table peaks at 9.8 bytes an entry at k = 25 and 32 at k = 1.  The
# longest walk, `approximate --k 1 --r 1.5 --x 0.5 --steps 2000000` to
# --out, sieves to 34366807 and writes 181 MB of JSON in 0.9-1.1 s, at a
# 151 MB peak under tracemalloc and 171 MiB resident (Python 3.11, numpy
# 2.4, one process on a 2-core x86-64 host).
GREEDY_MAX_ENTRIES = 4_000_000
# Primes above sqrt(bound) whose factors, made as Python floats, the census
# sieve holds at once: 65536 raised its resident peak by 2.6 MB at 1e6.
SIEVE_CHUNK = 2**13
# Primes in the first window of a greedy run's array test; the window
# doubles while the run lasts.
GREEDY_WINDOW = 64
# Levels m = 1..CENSUS_SCAN_LEVELS of the analytic gap scan a census overlays.
CENSUS_SCAN_LEVELS = 10


@dataclass(frozen=True)
class GreedyTrace:
    """Full record of one greedy run.

    ``alphas`` are the chosen exponents, an intp array: the witness
    n = prod_l p_l^alpha_l has log sigma ``achieved`` up to rounding.  C are
    the partial log sums (nondecreasing, never exceeding the target), D the
    per-prime deficits against the full local factor, E the cumulative
    deficits, each a float64 array; every column has one entry per prime.
    C_l + E_l converges to log G_k(r).  C stays constant at each prime
    that takes exponent 0, so where most primes do, C is a step function
    of few runs (5-21 distinct values in eight of the nine 100000-step
    walks of the benchmark's census plan at seeds 1-3), and the CLI writes
    it at the cost of one ``float.__repr__`` a run, not one a prime.
    """

    k: int
    r: float
    target: float
    alphas: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray
    achieved: float
    residual: float


def greedy_approximate(
    table: PrimeTable, k: int, r: float, x: float, steps: int
) -> GreedyTrace:
    """Run the greedy construction over the first ``steps`` primes, which
    ``table`` must hold: the DomainError of a short table comes after
    every other check, as the walk's primes are sieved last.

    The target must satisfy 0 <= x < log G_k(r), certified against the
    full-size bracket for log G_k(r); a target inside the bracket's
    uncertainty band is rejected as indeterminate rather than guessed about.
    x = 0 takes no zeta evaluation, as G_k(r) >= 1 + 2^-r > 1, and
    exponent 0 at every prime, the exact greedy step: every log local
    factor is positive, though the float log of 1 + p^-r reads 0.0 once
    p > 2^(53/r).

    The sign size settles most targets at about half the cost: with
    ``lower`` the lower end of its bracket, x < nextafter(lower, -inf) is
    accepted at once, and every other target takes the full-size check
    and its errors.  No outcome or message changes, since the full
    bracket's lower end is at or above nextafter(lower, -inf).  Both
    enclosures contain log G, and ``Bracket.from_iv`` takes a lower end as
    the double nearest the enclosure's, then one double down.  The sign
    enclosure's lower end is at most log G, so nextafter(lower, -inf) is
    at least two doubles below RN(log G).  The full enclosure's lower end
    is within half a spacing of doubles of log G, so its double is at most
    two below RN(log G).  That last step needs log G large: the sign
    size's unit of 2**-96 keeps lower <= 0, and so accepts nothing, unless
    log G is above about 2**-93 (r up to about 92), where the full size's
    unit of 2**-216 and remainder (below 1e-31 relative, and falling with
    r) leave its enclosure narrower than 1e-14 of a spacing."""
    check_k(k, infinite=False)  # the walk takes exponents up to a finite k
    check_r(r)
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if (k + 1) * steps > GREEDY_MAX_ENTRIES:
        raise CapacityError(
            f"(k + 1) * steps = {(k + 1) * steps} exceeds the walk capacity {GREEDY_MAX_ENTRIES}"
        )
    if not x >= 0:
        raise DomainError(f"target must be >= 0, got {x}")
    # The slice sieves the first ``steps`` primes, so every other check
    # goes first.
    if x > 0:
        lower = Bracket.from_iv(log_g_iv(k, to_iv(r), SIGN_SIZE)[0]).lo
        if not x < math.nextafter(lower, -math.inf):
            log_g = Bracket.from_iv(log_g_iv(k, to_iv(r))[0])
            if x >= log_g.hi:
                raise DomainError(f"target {x} is not below log G_{k}({r}) = {log_g.hi}")
            if x >= log_g.lo:
                raise IndeterminateError(
                    f"target {x} falls inside the log G bracket [{log_g.lo}, {log_g.hi}]"
                )

    import numpy as np

    powers = table.slice(1, steps).astype(np.float64) ** (-r)
    # partial_logs[a][l] = log(sum_{j<=a} p_l^{-jr}); row 0 is zero.  Each
    # row is the one above plus p^-ar, as np.cumsum over the rows adds.
    # Once every p^-ar rounds away, so does every later power, which is
    # smaller (p^-r < 1/2, and pow errs by under an ulp): the rest of the
    # rows equal this one, and a walk at huge k fills them at once.
    partial_logs = np.empty((k + 1, steps))
    partial_logs[0] = 1.0
    for a in range(1, k + 1):
        np.add(partial_logs[a - 1], powers**a, out=partial_logs[a])
        if np.array_equal(partial_logs[a], partial_logs[a - 1]):
            partial_logs[a + 1 :] = partial_logs[a]
            break
    np.log(partial_logs, out=partial_logs)
    alphas = _greedy_alphas(partial_logs, x) if x > 0 else np.zeros(steps, dtype=np.intp)
    taken = partial_logs[alphas, np.arange(steps)]
    C = np.cumsum(taken)
    D = partial_logs[k] - taken
    achieved = float(C[-1])
    return GreedyTrace(
        k=k,
        r=r,
        target=x,
        alphas=alphas,
        C=C,
        D=D,
        E=np.cumsum(D),
        achieved=achieved,
        residual=x - achieved,
    )


def _greedy_alphas(partial_logs: np.ndarray, x: float) -> np.ndarray:
    """The greedy exponents of the walk over ``partial_logs``, by runs.

    The rule at each prime l is: with c the sum so far, take the largest
    alpha <= k with c + partial_logs[alpha, l] <= x, else 0, and add
    partial_logs[alpha, l] to c.  Most of a walk is long runs of alpha 0,
    where c stands still, and of alpha k, where c is a running sum of row
    k, so each run is found by array tests over windows of GREEDY_WINDOW
    primes, doubling while the run lasts:

    - after an alpha of 0, the run ends at the first prime where
      c + partial_logs[a, l] <= x for some a >= 1.  Rounding is monotone
      and each column is nondecreasing in alpha, so that holds exactly
      where c + partial_logs[1, l] <= x;
    - after an alpha of k, the run ends at the first prime where the
      running sum c + partial_logs[k, i] + ... passes x.  ``np.cumsum``
      adds from the left, one rounding a term, as the walk does.

    The prime that ends a run, and every other prime, takes the rule
    itself, by binary search over its column: the column is
    nondecreasing in alpha and rounding is monotone, so
    c + partial_logs[alpha, l] <= x holds for a prefix of alphas, and a
    prime costs O(log k) comparisons at any k.  So every alpha, and every
    sum the walk compares, is the one the walk prime by prime takes, bit
    for bit."""
    import numpy as np

    k, steps = partial_logs.shape[0] - 1, partial_logs.shape[1]
    least = partial_logs[1]
    top = partial_logs[k]
    alphas = np.zeros(steps, dtype=np.intp)
    c = 0.0
    i = 0
    while i < steps:
        column = partial_logs[:, i]
        alpha, above = 0, k + 1  # c + column[alpha] <= x; above is the least a known to fail
        while above - alpha > 1:
            a = (alpha + above) >> 1
            if c + float(column[a]) <= x:
                alpha = a
            else:
                above = a
        alphas[i] = alpha
        c += float(column[alpha])
        i += 1
        window = GREEDY_WINDOW
        if alpha == 0:
            while i < steps:
                below = c + least[i : i + window] <= x
                if below.any():
                    i += int(below.argmax())
                    break
                i += window
                window *= 2
        elif alpha == k:
            while i < steps:
                sums = np.cumsum(np.concatenate(([c], top[i : i + window])))
                over = sums[1:] > x
                run = int(over.argmax()) if over.any() else len(over)
                alphas[i : i + run] = k
                c = float(sums[run])
                i += run
                if run < len(over):
                    break
                window *= 2
    return alphas


@dataclass(frozen=True)
class GapCensus:
    """Empirical map of the range up to an integer bound.

    ``values`` are the distinct restricted divisor sums of the admissible
    n <= bound, sorted ascending.  ``gaps`` are the adjacent spacings
    wider than the resolution, as a float64 table of one (left, right,
    width) row each; ``analytic_gaps`` overlays the certified first-level
    forbidden intervals, their linear ends taken inward through ``zeta.exp_iv``.
    """

    k: int
    r: float
    bound: int
    resolution: float
    values: np.ndarray = field(repr=False)
    gaps: np.ndarray  # shape (n, 3): left, right, width
    analytic_gaps: tuple[tuple[int, float, float], ...]  # (m, left, right)
    estimated_intervals: int


def _local_factor(p: int, e: int, r: float) -> float:
    """1 + p^-r + ... + p^-er as the census rounds it, one expression for
    every prime and exponent."""
    x = float(p) ** (-r)
    return (1.0 - x ** (e + 1)) / (1.0 - x)


def _sigma_values(k: int, r: float, bound: int) -> np.ndarray:
    """Restricted divisor sums of every admissible n <= bound, distinct
    and sorted, by a multiplicative sieve over ``value``, the one array of
    the bound's length, deduplicated in place of np.unique, which copies.

    ``value[n]`` takes the local factors of n's primes in ascending order,
    one multiply each, as one n at a time would, so every product rounds
    the same.  A prime p <= sqrt(bound) multiplies F(p, e) into the
    multiples of p^e that p^(e+1) does not divide, ``value[p**e::p**e]``
    as rows of p less the last column, and its tail; past k it zeroes the
    multiples of p^(k+1), out of the range as every value is >= 1.  A
    larger prime q divides n once, after every other prime of n: its
    factor goes in last, one fancy-indexed multiply per cofactor j over
    SIEVE_CHUNK primes at a time.

    Every factor keeps _local_factor's expressions and Python's ``pow``
    (a large prime's written out over a list of floats, 1.2x as fast as a
    call per prime), so each value is the one-n loop's bit for bit.
    ``np.power`` rounds 42k of the 783k q^-r of the primes in (1000, 1e6]
    over ten r in [1.01, 3] otherwise, changing census values; ``x * x``
    differs from ``x ** 2`` (libm's pow) at 2,940 of 3,485,020 (q, r), q
    a prime in (31, 5e6] and ten r in [1.0001, 3], and at 1,748 of
    2,000,000 random x in (0, 1) (numpy 2.4, glibc, x86-64).  None of
    those reached a factor, x^2 being far below an ulp of 1, but nothing
    here proves that none would."""
    import numpy as np

    root = math.isqrt(bound)
    # At bound 1 the prime 2 takes no multiple: the least sieve is to 2.
    primes = sieve(max(bound, 2)).primes
    split = int(np.searchsorted(primes, root, side="right"))
    value = np.ones(bound + 1)
    for p in primes[:split].tolist():
        q, e = p, 1
        while q <= bound:
            multiples = value[q::q]
            if e > k:
                multiples[:] = 0.0
                break
            factor = _local_factor(p, e, r)
            rows = len(multiples) // p
            multiples[: rows * p].reshape(rows, p)[:, :-1] *= factor
            multiples[rows * p :] *= factor
            q, e = q * p, e + 1
    for start in range(split, len(primes), SIEVE_CHUNK):
        large = primes[start : start + SIEVE_CHUNK]
        factors = np.array([(1.0 - x**2) / (1.0 - x) for x in [float(q) ** -r for q in large.tolist()]])
        for j in range(1, bound // int(large[0]) + 1):
            count = int(np.searchsorted(large, bound // j, side="right"))
            value[large[:count] * j] *= factors[:count]
    del primes, large, factors  # freed before the dedupe, which copies
    value[0] = 0.0
    value.sort()
    # Past the zeros: n = 0 and every inadmissible n.
    value = value[np.searchsorted(value, 0.0, side="right") :]
    distinct = np.empty(len(value), dtype=bool)
    distinct[0] = True
    np.not_equal(value[1:], value[:-1], out=distinct[1:])
    return value[distinct]


def range_census(
    table: PrimeTable,
    k: int,
    r: float,
    bound: int,
    resolution: float | None = None,
) -> GapCensus:
    """Enumerate the range up to ``bound`` and report its gap structure.

    Default resolution is 10/bound: adjacent admissible integers near the
    bound perturb the sum by O(1/bound), so spacings an order above that
    are structural rather than enumeration artifacts.  The census never
    reconciles empirical and analytic gaps; both are reported as found.
    """
    resolution, analytic, values = census_values(table, k, r, bound, resolution)

    import numpy as np

    diffs = np.diff(values)
    wide = np.nonzero(diffs > resolution)[0]
    gaps = np.column_stack((values[wide], values[wide + 1], diffs[wide]))
    return GapCensus(
        k=k,
        r=r,
        bound=bound,
        resolution=resolution,
        values=values,
        gaps=gaps,
        analytic_gaps=analytic,
        estimated_intervals=len(gaps) + 1,
    )


def census_values(table: PrimeTable, k: int, r: float, bound: int, resolution: float | None):
    """:func:`range_census` short of the gap table, which a census's TSV
    does not print: its checks and errors, and (resolution, analytic_gaps,
    values)."""
    check_k(k, infinite=False)  # the census enumerates a finite k
    check_r(r)
    if bound < 1:
        raise DomainError(f"bound must be >= 1, got {bound}")
    if bound > CENSUS_MAX_BOUND:
        raise CapacityError(f"bound {bound} exceeds the census capacity; try {CENSUS_MAX_BOUND} or less")
    if resolution is None:
        resolution = 10.0 / bound
    if not resolution > 0:
        raise DomainError(f"resolution must be positive, got {resolution}")
    # The largest local factor is 2's; once it rounds to 1.0 (r >= 54), so
    # does every other, and a census would print one value for a range
    # that is nowhere dense.
    if _local_factor(2, 1, r) == 1.0:
        raise PrecisionError(f"every census value rounds to 1.0 at r = {r}")

    # Each linear end is the inner double of exp_iv's bracket at its log
    # end (53 bits), so it stays inside the certified log-interval.
    analytic = tuple(
        (m, Bracket.from_iv(exp_iv(to_iv(lo), 53)).hi, Bracket.from_iv(exp_iv(to_iv(hi), 53)).lo)
        for m, lo, hi in analytic_gap_scan(table, k, r, CENSUS_SCAN_LEVELS)
    )
    # A gap narrower than a few ulps of 1 has no inner double endpoints;
    # it is an error, never printed empty or inverted.
    for m, left, right in analytic:
        if left >= right:
            raise PrecisionError(
                f"the certified gap at level m = {m} is too narrow for doubles at r = {r}"
            )

    return resolution, analytic, _sigma_values(k, r, bound)


def analytic_gap_scan(
    table: PrimeTable, k: int, r: float, m_max: int
) -> tuple[tuple[int, float, float], ...]:
    """The certified forbidden log-intervals of levels m = 1..m_max, as
    (m, lo, hi) in ascending m: the gaps :func:`density.t_levels` yields,
    at the levels where T is certified positive.  A level whose T bracket
    is nonpositive or straddles zero has none.  log G_k(r) is evaluated
    once per scan."""
    check_k(k)
    check_r(r)
    if m_max < 1:
        raise DomainError(f"m_max must be >= 1, got {m_max}")
    r_iv = to_iv(r)
    levels = t_levels(table, k, r_iv, log_g_iv(k, r_iv), range(1, m_max + 1))
    return tuple((m, *gap) for m, _, gap in levels if gap is not None)
