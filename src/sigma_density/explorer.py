"""Constructive approximation and empirical gap mapping.

The greedy procedure walks the primes in order and, at each one, takes
the largest exponent alpha <= k whose local-factor log keeps the partial
sum at or below the target.  In the dense regime the partial sums
converge to the target; in the non-dense regime the residual can stall,
which is exactly the gap phenomenon the census maps empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .brackets import Bracket
from .density import t_levels
from .errors import CapacityError, DomainError, IndeterminateError, PrecisionError, check_k, check_r
from .primes import PrimeTable, nth_prime_bound, sieve
from .zeta import FactorSketch, log_g_iv, to_iv

if TYPE_CHECKING:
    import numpy as np

# Largest census bound, from measurement (Python 3.11, numpy 2.4, one
# process on a 2-core x86-64 host).  range_census peaks at 28.5 bytes an
# integer under tracemalloc, taking 0.11 s at 1e6 and 1.6 s at 1e7.  The
# census command's JSON, one repr string per value, lifts the request to
# about 160 bytes an integer where every n is admissible and its value
# distinct (k = 1000, r = 1.0001): at this cap, 0.79 GB under tracemalloc,
# 0.96 GB resident and 14 s.
CENSUS_MAX_BOUND = 5_000_000
# Largest (k + 1) * steps of a greedy walk: its table of partial local
# factors holds that many doubles, and its peak memory is about 20 bytes
# an entry (80 MB at this cap).
GREEDY_MAX_ENTRIES = 4_000_000
# Primes per block the greedy walk reads from that table as Python floats.
GREEDY_BLOCK = 4096
# Levels m = 1..CENSUS_SCAN_LEVELS of the analytic gap scan a census overlays.
CENSUS_SCAN_LEVELS = 10


@dataclass(frozen=True)
class GreedyTrace:
    """Full record of one greedy run.

    C are the partial log sums (nondecreasing, never exceeding the
    target), D the per-prime deficits against the full local factor, E
    the cumulative deficits; C_l + E_l converges to log G_k(r).
    """

    k: int
    r: float
    target: float
    alphas: list[int]
    C: list[float]
    D: list[float]
    E: list[float]
    achieved: float
    residual: float

    def witness(self) -> FactorSketch:
        """The factored integer realizing ``achieved``."""
        return FactorSketch(
            k=self.k,
            entries=tuple(
                (i + 1, a) for i, a in enumerate(self.alphas) if a > 0
            ),
        )


def greedy_approximate(
    table: PrimeTable, k: int, r: float, x: float, steps: int
) -> GreedyTrace:
    """Run the greedy construction over the first ``steps`` primes.

    The target must satisfy 0 <= x < log G_k(r), certified against the
    bracket for log G_k(r); a target inside the bracket's uncertainty
    band is rejected as indeterminate rather than guessed about.
    """
    check_k(k)
    check_r(r)
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if (k + 1) * steps > GREEDY_MAX_ENTRIES:
        raise CapacityError(
            f"(k + 1) * steps = {(k + 1) * steps} exceeds the walk capacity {GREEDY_MAX_ENTRIES}",
            suggested_bound=GREEDY_MAX_ENTRIES // (k + 1),
        )
    if x < 0:
        raise DomainError(f"target must be >= 0, got {x}")
    # The slice sieves the first ``steps`` primes, so every cheap check goes
    # first.  A table whose limit is past the bound on p_steps surely holds
    # them, and then the target is checked before the table is.
    if nth_prime_bound(steps) > table.limit:
        _walk_primes(table, steps)
    log_g = Bracket.from_iv(log_g_iv(k, to_iv(r)))
    if x >= log_g.hi:
        raise DomainError(f"target {x} is not below log G_{k}({r}) = {log_g.hi}")
    if x >= log_g.lo:
        raise IndeterminateError(
            f"target {x} falls inside the log G bracket [{log_g.lo}, {log_g.hi}]"
        )

    import numpy as np

    p = _walk_primes(table, steps).astype(np.float64)
    # partial_logs[a][l] = log(sum_{j<=a} p_l^{-jr}); row 0 is zero.
    powers = p ** (-r)
    partials = np.cumsum(
        np.vstack([np.ones_like(p)] + [powers**a for a in range(1, k + 1)]), axis=0
    )
    partial_logs = np.log(partials)

    alphas: list[int] = []
    C: list[float] = []
    D: list[float] = []
    E: list[float] = []
    c = 0.0
    e = 0.0
    # Read the table as Python floats a block of primes at a time: one
    # tolist() of the whole table would double the walk's peak memory.
    # A block is k + 1 rows zipped into one short-lived tuple per prime,
    # not a list per prime: thousands of lists alive at once would trip
    # the cyclic garbage collector, whose full passes then land in the
    # walk and in whichever request follows it.
    for start in range(0, steps, GREEDY_BLOCK):
        for logs in zip(*partial_logs[:, start : start + GREEDY_BLOCK].tolist()):
            alpha = 0
            for a in range(k, 0, -1):
                if c + logs[a] <= x:
                    alpha = a
                    break
            c += logs[alpha]
            d = logs[k] - logs[alpha]
            e += d
            alphas.append(alpha)
            C.append(c)
            D.append(d)
            E.append(e)
    return GreedyTrace(
        k=k,
        r=r,
        target=x,
        alphas=alphas,
        C=C,
        D=D,
        E=E,
        achieved=c,
        residual=x - c,
    )


def _walk_primes(table: PrimeTable, steps: int) -> np.ndarray:
    """The first ``steps`` primes of ``table``."""
    try:
        return table.slice(1, steps)
    except DomainError:
        raise DomainError(f"steps={steps} exceeds the table of {len(table)} primes") from None


@dataclass(frozen=True)
class GapCensus:
    """Empirical map of the range up to an integer bound.

    ``values`` are the distinct restricted divisor sums of the admissible
    n <= bound, sorted ascending.  ``gaps`` are the adjacent spacings
    wider than the resolution; ``analytic_gaps`` overlays the certified
    first-level forbidden intervals (exponentiated to linear scale).
    """

    k: int
    r: float
    bound: int
    resolution: float
    values: np.ndarray = field(repr=False)
    gaps: tuple[tuple[float, float, float], ...]  # (left, right, width)
    analytic_gaps: tuple[tuple[int, float, float], ...]  # (m, left, right)
    estimated_intervals: int


def _local_factor(p: int, e: int, r: float) -> float:
    """1 + p^-r + ... + p^-er as the census rounds it, one expression for
    every prime and exponent."""
    x = float(p) ** (-r)
    return (1.0 - x ** (e + 1)) / (1.0 - x)


def _sigma_values(k: int, r: float, bound: int) -> np.ndarray:
    """Restricted divisor sums of every admissible n <= bound, distinct
    and sorted, by a multiplicative sieve.

    ``value[n]`` takes the local factors of n's primes p <= sqrt(bound)
    in ascending order, as one n at a time would, so every product rounds
    the same; an exponent above k multiplies in 0, which marks n
    inadmissible because every admissible value is >= 1.  ``cofactor[n]``
    is n with those primes divided out: 1 or one prime above sqrt(bound),
    whose factor goes in last, in bulk.  int32 holds every n up to
    CENSUS_MAX_BOUND."""
    import numpy as np

    root = math.isqrt(bound)
    small = sieve(root).primes.tolist() if root >= 2 else []
    cofactor = np.arange(bound + 1, dtype=np.int32)
    value = np.ones(bound + 1)
    for p in small:
        powers = [p]
        while powers[-1] * p <= bound:
            powers.append(powers[-1] * p)
        factors = np.zeros(len(powers) + 1)
        for e in range(1, min(k, len(powers)) + 1):
            factors[e] = _local_factor(p, e, r)
        # exponent[j - 1] is the exponent of p in n = p * j.
        exponent = np.zeros(bound // p, dtype=np.int8)
        for q in powers:
            exponent[q // p - 1 :: q // p] += 1
            cofactor[q::q] //= p
        value[p::p] *= factors[exponent]
    # Past sqrt(bound), n is its own cofactor exactly when n is prime.
    large = np.arange(root + 1, bound + 1, dtype=np.int32)
    large = large[cofactor[root + 1 :] == large]
    lookup = np.ones(bound + 1)
    lookup[large] = [_local_factor(q, 1, r) for q in large.tolist()]
    value *= lookup[cofactor]
    del cofactor, lookup  # freed before the sort, which copies
    value[0] = 0.0
    value = value[value > 0]
    return np.unique(value)


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
    check_k(k)
    check_r(r)
    if bound < 1:
        raise DomainError(f"bound must be >= 1, got {bound}")
    if bound > CENSUS_MAX_BOUND:
        raise CapacityError(
            f"bound {bound} exceeds the census capacity; try {CENSUS_MAX_BOUND} or less",
            suggested_bound=CENSUS_MAX_BOUND,
        )
    if resolution is None:
        resolution = 10.0 / bound
    if not resolution > 0:
        raise DomainError(f"resolution must be positive, got {resolution}")

    # math.exp is accurate to within an ulp but not directed: one ulp
    # inward keeps each linear endpoint inside the certified log-interval.
    analytic = tuple(
        (
            entry.m,
            math.nextafter(math.exp(entry.interval[0]), math.inf),
            math.nextafter(math.exp(entry.interval[1]), -math.inf),
        )
        for entry in analytic_gap_scan(table, k, r, CENSUS_SCAN_LEVELS)
        if entry.interval is not None
    )
    # A gap narrower than a few ulps of 1 has no inward-rounded double
    # endpoints; it is an error, never printed empty or inverted.
    for m, left, right in analytic:
        if left >= right:
            raise PrecisionError(
                f"the certified gap at level m = {m} is too narrow for doubles at r = {r}"
            )

    import numpy as np

    values = _sigma_values(k, r, bound)
    diffs = np.diff(values)
    wide = np.nonzero(diffs > resolution)[0]
    gaps = tuple(
        zip(values[wide].tolist(), values[wide + 1].tolist(), diffs[wide].tolist())
    )
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


@dataclass(frozen=True)
class ScanEntry:
    """One level of the analytic gap scan."""

    m: int
    t: Bracket
    status: str  # 'positive' | 'nonpositive' | 'indeterminate'
    interval: tuple[float, float] | None  # certified forbidden log-interval


def analytic_gap_scan(
    table: PrimeTable, k: int, r: float, m_max: int
) -> tuple[ScanEntry, ...]:
    """Certified first-level forbidden intervals for m = 1..m_max.

    The intervals are the inner cores of :func:`density.gap_interval`,
    from the same evaluation of T; log G_k(r) is evaluated once per scan.
    Entries whose T bracket straddles zero are flagged indeterminate, not
    guessed.  Callers wanting only firing levels filter on status."""
    check_k(k)
    check_r(r)
    if m_max < 1:
        raise DomainError(f"m_max must be >= 1, got {m_max}")
    r_iv = to_iv(r)
    entries = []
    for m, t, gap in t_levels(table, k, r_iv, log_g_iv(k, r_iv), range(1, m_max + 1)):
        if gap is not None:
            status = "positive"
        elif t.nonpositive():
            status = "nonpositive"
        else:
            status = "indeterminate"
        entries.append(
            ScanEntry(m=m, t=t, status=status, interval=gap.inner if gap else None)
        )
    return tuple(entries)
