"""Prime generation and the exhaustive prime-gap ratio check.

The gap check establishes, by exact integer arithmetic, that consecutive
primes satisfy p_{j+1}/p_j < sqrt(2) for every index j outside {1, 2, 4}
with p_j below the search bound 396738.  Beyond that bound the ratio
rests on known prime-gap bounds, not re-proved here: Dusart (1998), whose
x_0 is 396738, puts a prime in [x, x(1 + 1/(25 log^2 x))] for every
x >= 396738, and Nagura (1952) puts one in (x, 6x/5) for x >= 25, so
p_{j+1}/p_j < 6/5 < sqrt(2) once p_j >= 25.  The finite search is the
only computational content.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import CapacityError, DomainError

if TYPE_CHECKING:
    import numpy as np

# Exhaustive-search bound for the gap ratio check.
GAP_SEARCH_BOUND = 396738
# Indices excluded from the sqrt(2) gap bound (gaps 2->3, 3->5, 7->11).
GAP_EXCLUDED_INDICES = (1, 2, 4)
# Index of the first prime past the search bound: p_33608 = 396733 and
# p_33609 = 396833.
GAP_SEARCH_INDEX = 33609

# The limit of the CLI's and the scripts' table, 148933 primes; the CLI
# sizes a longer walk's table to the bound on its last prime.
DEFAULT_LIMIT = 2_000_000
# Largest sieve: a one-byte mask per integer, about 50 MB at this limit.
SIEVE_MAX_LIMIT = 50_000_000
# The first bound a table sieves to, and the least factor each re-sieve
# grows it by.  The first bound covers p_172 = 1021, more than the density
# criterion and the solvers read; it is sieved in pure Python, so a
# request that reads no further never imports numpy.
FIRST_SIEVE_BOUND = 1024
SIEVE_GROWTH = 4


class PrimeTable:
    """Every prime up to ``limit``, ascending; indexing is 1-based:
    ``nth(1) == 2``.

    The table sieves on demand.  A read past the sieved prefix sieves
    afresh to the larger of ``SIEVE_GROWTH`` times the last bound and the
    bound on the prime it needs (:func:`nth_prime_bound`), never past
    ``limit``; that bound is at least the prime, so no read sieves more
    than once.  A request pays for the primes it reads, and the bounds
    grow at least SIEVE_GROWTH-fold, so all the sieves together cost at
    most SIEVE_GROWTH / (SIEVE_GROWTH - 1) times the last one.
    ``primes`` means the whole table, so it sieves to ``limit``.

    A first sieve to at most ``FIRST_SIEVE_BOUND`` gives a tuple, which
    ``nth`` reads; ``primes`` and ``slice`` turn it into an array once.
    Every larger sieve gives a read-only int64 array.
    """

    def __init__(self, limit: int):
        self.limit = limit
        # (bound, primes up to it), replaced as one value, so that a reader
        # in another thread never pairs a bound with another bound's primes.
        self._sieved = (0, ())

    def _prefix(self, count: float) -> tuple[int, tuple[int, ...] | np.ndarray]:
        """The sieved (bound, primes), sieved afresh where the primes
        number fewer than ``count`` and the sieve is short of ``limit``."""
        bound, primes = self._sieved
        if len(primes) < count and bound < self.limit:
            # A count past limit sieves to limit (p_n > n) and could
            # overflow a float.
            needed = nth_prime_bound(min(count, self.limit))
            bound = math.ceil(min(self.limit, max(FIRST_SIEVE_BOUND, SIEVE_GROWTH * bound, needed)))
            primes = _first_sieve(bound) if bound <= FIRST_SIEVE_BOUND else _eratosthenes(bound)
            self._sieved = (bound, primes)
        return bound, primes

    def _array(self, count: float) -> np.ndarray:
        """The sieved primes as by :meth:`_prefix`, as a read-only int64
        array; a first sieve's tuple is turned into one once."""
        bound, primes = self._prefix(count)
        if isinstance(primes, tuple):
            primes = _frozen_array(primes)
            self._sieved = (bound, primes)
        return primes

    @property
    def primes(self) -> np.ndarray:
        return self._array(math.inf)

    def nth(self, i: int) -> int:
        """The i-th prime, 1-based."""
        if i < 1:
            raise DomainError(f"prime index must be >= 1, got {i}")
        primes = self._prefix(i)[1]
        if i > len(primes):
            raise DomainError(
                f"table holds {len(primes)} primes (limit {self.limit}); "
                f"index {i} requires a larger sieve"
            )
        return int(primes[i - 1])

    def slice(self, start: int, stop: int) -> np.ndarray:
        """Primes p_start .. p_stop inclusive, 1-based, as int64 array."""
        if start < 1:
            raise DomainError(f"prime slice [{start}, {stop}] starts below index 1")
        primes = self._array(stop)
        if stop > len(primes):
            raise DomainError(f"prime slice [{start}, {stop}] outside table of size {len(primes)}")
        return primes[start - 1 : stop]


def nth_prime_bound(n: float) -> float:
    """An upper bound on the n-th prime: n (ln n + ln ln n) for n >= 6
    (Rosser and Schoenfeld, 1962), and p_5 = 11 below."""
    if n < 6:
        return 11
    return n * (math.log(n) + math.log(math.log(n)))


def _first_sieve(bound: int) -> tuple[int, ...]:
    """The primes up to ``bound`` inclusive, as a tuple, sieved in pure
    Python: at ``FIRST_SIEVE_BOUND`` this takes about 40 us, against
    18 us for numpy's sieve and tens of ms for numpy's import."""
    mask = bytearray(b"\1") * (bound + 1)
    mask[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound) + 1):
        if mask[p]:
            mask[p * p :: p] = bytes((bound - p * p) // p + 1)
    return tuple(itertools.compress(range(bound + 1), mask))


def _frozen_array(values) -> np.ndarray:
    """``values`` as a read-only int64 array."""
    import numpy as np

    array = np.asarray(values, dtype=np.int64)
    array.setflags(write=False)
    return array


def _eratosthenes(bound: int) -> np.ndarray:
    """The primes up to ``bound`` inclusive, as a read-only int64 array."""
    import numpy as np

    mask = np.ones(bound + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return _frozen_array(np.nonzero(mask)[0])


def sieve(limit: int) -> PrimeTable:
    """The table of the primes up to ``limit`` inclusive, sieved on demand."""
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if limit > SIEVE_MAX_LIMIT:
        raise CapacityError(f"sieve limit {limit} exceeds {SIEVE_MAX_LIMIT}")
    return PrimeTable(limit)


def load_or_sieve(limit: int = DEFAULT_LIMIT) -> PrimeTable:
    """The prime table up to ``limit``; the same as :func:`sieve`."""
    return sieve(limit)


@dataclass(frozen=True)
class GapLemmaReport:
    """Result of the exhaustive sqrt(2)-gap check below GAP_SEARCH_BOUND."""

    bound: int
    checked: int
    max_ratio: float
    argmax_index: int
    passed: bool
    excluded: tuple[tuple[int, float], ...]  # (index j, ratio p_{j+1}/p_j)


def verify_gap_lemma(table: PrimeTable) -> GapLemmaReport:
    """Check p_{j+1}^2 < 2 p_j^2 for all j not in {1,2,4} with p_j < 396738.

    The decision is exact integer arithmetic: floating point only picks
    out the indices it compares, so it cannot change the verdict or the
    argmax.  The excluded indices are reported with their
    (super-sqrt(2)) ratios for reference.
    """
    import numpy as np

    if table.limit < GAP_SEARCH_BOUND:
        raise DomainError(
            f"table limit {table.limit} < search bound {GAP_SEARCH_BOUND}"
        )
    try:
        primes = table.slice(1, GAP_SEARCH_INDEX)
    except DomainError:
        raise DomainError("table must contain at least one prime beyond the search bound") from None
    ratio = primes[1:] / primes[:-1]  # p_{j+1} / p_j at position j - 1
    ratio[[j - 1 for j in GAP_EXCLUDED_INDICES]] = 0
    # Division and sqrt round correctly, and rounding is monotone: a ratio
    # of at least sqrt(2) rounds to at least the double sqrt(2), and the
    # largest ratio to the largest double.  Exact integer comparisons
    # decide among the few indices the doubles pick out.
    passed = all(
        int(primes[i + 1]) ** 2 < 2 * int(primes[i]) ** 2
        for i in np.flatnonzero(ratio >= math.sqrt(2))
    )
    argmax, max_p, max_q = 0, 1, 0
    for i in np.flatnonzero(ratio == ratio.max()):
        p, q = int(primes[i]), int(primes[i + 1])
        if q * max_p > max_q * p:
            argmax, max_p, max_q = int(i) + 1, p, q
    excluded = tuple((j, int(primes[j]) / int(primes[j - 1])) for j in GAP_EXCLUDED_INDICES)
    return GapLemmaReport(
        bound=GAP_SEARCH_BOUND,
        checked=len(ratio) - len(excluded),
        max_ratio=(max_q * max_q / (max_p * max_p)) ** 0.5,
        argmax_index=argmax,
        passed=passed,
        excluded=excluded,
    )
