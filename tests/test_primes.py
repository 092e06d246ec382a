import math

import numpy as np
import pytest

from oracles import eratosthenes
from sigma_density import primes
from sigma_density.errors import CapacityError, DomainError


def _trial_division_primes(limit):
    found = []
    for n in range(2, limit + 1):
        if all(n % p for p in found if p * p <= n):
            found.append(n)
    return found


def gap_lemma_loop(table):
    """The gap check one index at a time in Python ints, kept as the
    oracle: the library decides in one pass over int64 arrays, the verdict
    by int64 squares and the argmax by the first argmax of double ratios;
    here both are exact integer comparisons, the argmax the first index
    of the largest ratio."""
    primes_ = table.slice(1, primes.GAP_SEARCH_INDEX)
    max_ratio_sq, argmax, checked, passed, excluded = (0, 1), 0, 0, True, []
    for j in range(1, primes.GAP_SEARCH_INDEX):
        p, q = int(primes_[j - 1]), int(primes_[j])
        if j in primes.GAP_EXCLUDED_INDICES:
            excluded.append((j, q / p))
            continue
        checked += 1
        if q * q >= 2 * p * p:
            passed = False
        if q * q * max_ratio_sq[1] > max_ratio_sq[0] * p * p:
            max_ratio_sq, argmax = (q * q, p * p), j
    return primes.GapLemmaReport(
        bound=primes.GAP_SEARCH_BOUND,
        checked=checked,
        max_ratio=(max_ratio_sq[0] / max_ratio_sq[1]) ** 0.5,
        argmax_index=argmax,
        passed=passed,
        excluded=tuple(excluded),
    )


class _FixedTable:
    """A stand-in table that serves a given array of 'primes'."""

    def __init__(self, values):
        self.limit = primes.DEFAULT_LIMIT
        self.values = values

    def slice(self, start, stop):
        return self.values[start - 1 : stop]


def test_small_sieves():
    assert list(primes.sieve(10).primes) == [2, 3, 5, 7]
    assert list(primes.sieve(2).primes) == [2]


def test_sieve_rejects_tiny_limit():
    with pytest.raises(DomainError):
        primes.sieve(1)


def test_sieve_rejects_a_limit_above_capacity():
    with pytest.raises(CapacityError):
        primes.sieve(primes.SIEVE_MAX_LIMIT + 1)


@pytest.mark.parametrize("bound", [2, 1000, primes.FIRST_SIEVE_BOUND, primes.FIRST_SIEVE_BOUND + 1])
def test_sieved_primes_are_read_only_int64(bound):
    # the sieve gives a tuple, made without numpy, up to the first bound,
    # and an array above it
    sieved, arrays = primes._sieve(bound), [primes.sieve(bound).primes]
    if bound <= primes.FIRST_SIEVE_BOUND:
        assert isinstance(sieved, tuple)
    else:
        arrays.append(sieved)
    for values in arrays:
        assert values.dtype == np.int64
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 4


def test_sieve_matches_the_numpy_sieve():
    for bound in range(2, 3 * primes.FIRST_SIEVE_BOUND + 1):
        assert list(primes._sieve(bound)) == eratosthenes(bound).tolist(), bound


# The bounds the CLI sieves to: the 1000-step walk, the probe census, the
# gap lemma, the census, the 100000-step walk, the default limit, the
# census cap and the longest walk.
CLI_BOUNDS = [8841, 100_000, 429_070, 1_000_000, 1_395_640, 2_000_000, 5_000_000, 34_366_807]


@pytest.mark.parametrize("bound", CLI_BOUNDS)
def test_sieve_matches_the_numpy_sieve_at_the_cli_bounds(bound):
    assert np.array_equal(primes._sieve(bound), eratosthenes(bound))


def test_a_first_sieve_table_serves_read_only_arrays_without_copies(sieve_bounds):
    table = primes.sieve(primes.DEFAULT_LIMIT)
    assert table.nth(4) == 7
    head, tail = table.slice(1, 4), table.slice(100, 172)
    assert sieve_bounds == [primes.FIRST_SIEVE_BOUND]
    for values in (head, tail):
        assert values.dtype == np.int64
        assert not values.flags.writeable
    # both are views of one array, made once
    assert head.base is tail.base is not None
    assert list(head) == [2, 3, 5, 7] and tail[-1] == 1021


def test_sieve_matches_trial_division():
    assert list(primes.sieve(500).primes) == _trial_division_primes(500)


def test_nth_prime_examples(table):
    assert table.nth(1) == 2
    assert table.nth(4) == 7
    # independent oracle: enumerate primes below 100 by trial division
    assert table.nth(25) == _trial_division_primes(100)[24] == 97


def test_nth_prime_out_of_range():
    small = primes.sieve(10)
    with pytest.raises(DomainError, match=r"^table holds 4 primes \(limit 10\); index 5 requires a larger sieve$"):
        small.nth(5)
    with pytest.raises(DomainError, match="^prime index must be >= 1, got 0$"):
        small.nth(0)
    with pytest.raises(DomainError, match=r"^prime slice \[1, 5\] outside table of size 4$"):
        small.slice(1, 5)
    with pytest.raises(DomainError, match=r"^prime slice \[0, 2\] starts below index 1$"):
        primes.sieve(10).slice(0, 2)
    # an index too large for a float is out of range like any other
    with pytest.raises(DomainError, match=r"^table holds 4 primes \(limit 10\); index 10{400} requires"):
        primes.sieve(10).nth(10**400)
    with pytest.raises(DomainError, match=r"^prime slice \[1, 10{400}\] outside table of size 4$"):
        primes.sieve(10).slice(1, 10**400)


LIMITS = [2, 3, 10, 1000, 1025, 5000, 2_000_000]


@pytest.mark.parametrize("limit", LIMITS)
def test_on_demand_table_matches_the_eager_sieve(limit):
    expected = eratosthenes(limit)
    n = len(expected)
    reads = primes.sieve(limit)
    picks = [n // 3 + 1, 1, n, n // 2 + 1, max(n - 1, 1)]
    assert [reads.nth(i) for i in picks] == [int(expected[i - 1]) for i in picks]
    for start, stop in [(1, 1), (1, n), (n, n), (n // 3 + 1, n // 2 + 1), (2, 1)]:
        assert np.array_equal(reads.slice(start, stop), expected[start - 1 : stop])
    whole = primes.sieve(limit)
    assert whole.primes.dtype == np.int64
    assert np.array_equal(whole.primes, expected)
    assert len(whole.primes) == n
    with pytest.raises(DomainError):
        whole.nth(n + 1)
    with pytest.raises(DomainError):
        reads.slice(1, n + 1)


def test_answers_do_not_depend_on_the_order_of_reads():
    far_first, near_first = primes.sieve(primes.DEFAULT_LIMIT), primes.sieve(primes.DEFAULT_LIMIT)
    far = far_first.nth(100_000)
    near = far_first.slice(1, 10)
    assert list(near_first.slice(1, 10)) == list(near) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert near_first.nth(100_000) == far == 1_299_709
    assert np.array_equal(far_first.primes, near_first.primes)


def test_a_read_sieves_only_as_far_as_it_needs(sieve_bounds):
    table = primes.sieve(primes.DEFAULT_LIMIT)
    assert sieve_bounds == []
    assert table.nth(4) == 7 and list(table.slice(1, 172))[-1] == 1021
    assert sieve_bounds == [primes.FIRST_SIEVE_BOUND]
    # one sieve a read, to the bound on the prime it needs: p_1000 = 7919
    table.nth(1000)
    assert sieve_bounds[1:] == [math.ceil(primes.nth_prime_bound(1000))] == [8841]
    # or to SIEVE_GROWTH times the last bound, where that is larger
    table.nth(1200)
    assert sieve_bounds[2:] == [primes.SIEVE_GROWTH * 8841]
    table.nth(1)
    assert len(sieve_bounds) == 3
    # growth is geometric, so the sieves together cost a bounded multiple of the last
    assert sum(sieve_bounds) < primes.SIEVE_GROWTH / (primes.SIEVE_GROWTH - 1) * sieve_bounds[-1] + 1


def test_a_slice_below_index_1_sieves_nothing(sieve_bounds):
    table = primes.sieve(primes.SIEVE_MAX_LIMIT)
    for start in (0, -3):
        with pytest.raises(DomainError, match=r"starts below index 1$"):
            table.slice(start, 5)
    assert sieve_bounds == []


def test_whole_table_reads_sieve_to_the_limit(sieve_bounds):
    assert len(primes.sieve(5000).primes) == 669
    assert sieve_bounds[-1] == 5000
    assert primes.sieve(1025).primes[-1] == 1021
    assert sieve_bounds[-1] == 1025


def test_prefix_property():
    a = primes.sieve(1000).primes
    b = primes.sieve(5000).primes
    assert list(b[: len(a)]) == list(a)


def test_large_table_sanity(table):
    assert table.nth(4) == 7
    assert table.nth(100_000) == 1_299_709
    assert len(table.primes) >= 100_001


def test_gap_lemma_passes(table):
    report = primes.verify_gap_lemma(table)
    assert report.passed
    assert report.max_ratio < math.sqrt(2)
    assert report.checked > 30_000
    # excluded indices carry the known super-sqrt(2) ratios
    excluded = dict(report.excluded)
    assert excluded[1] == pytest.approx(3 / 2)
    assert excluded[2] == pytest.approx(5 / 3)
    assert excluded[4] == pytest.approx(11 / 7)
    assert excluded[4] > math.sqrt(2)


def test_gap_lemma_j3_ratio(table):
    # index 3 is checked: 7/5 = 1.4 < sqrt(2)
    assert table.nth(4) / table.nth(3) == pytest.approx(1.4)


def test_gap_lemma_requires_capacity():
    small = primes.sieve(1000)
    with pytest.raises(DomainError):
        primes.verify_gap_lemma(small)
    with pytest.raises(DomainError, match="at least one prime beyond the search bound"):
        primes.verify_gap_lemma(primes.sieve(396_800))


def test_gap_search_index_is_the_first_prime_past_the_bound():
    below = eratosthenes(primes.GAP_SEARCH_BOUND)
    assert len(below) + 1 == primes.GAP_SEARCH_INDEX
    assert below[-1] < primes.GAP_SEARCH_BOUND < primes.sieve(500_000).nth(primes.GAP_SEARCH_INDEX)


def test_gap_lemma_matches_a_search_of_the_whole_table(sieve_bounds):
    report = primes.verify_gap_lemma(primes.sieve(primes.DEFAULT_LIMIT))
    assert max(sieve_bounds) < primes.DEFAULT_LIMIT
    expected = eratosthenes(primes.DEFAULT_LIMIT).tolist()
    n_below = int(np.searchsorted(expected, primes.GAP_SEARCH_BOUND))
    ratios = {j: expected[j] / expected[j - 1] for j in range(1, n_below + 1)}
    assert report.checked == n_below - len(primes.GAP_EXCLUDED_INDICES)
    assert report.excluded == tuple((j, ratios[j]) for j in primes.GAP_EXCLUDED_INDICES)
    kept = {j: q for j, q in ratios.items() if j not in primes.GAP_EXCLUDED_INDICES}
    assert report.argmax_index == max(kept, key=kept.get)


def test_nth_prime_bound_holds_across_the_default_table():
    expected = eratosthenes(primes.DEFAULT_LIMIT)
    bounds = np.array([primes.nth_prime_bound(n) for n in range(1, len(expected) + 1)])
    assert len(expected) == 148_933
    assert np.all(bounds >= expected)
    assert primes.nth_prime_bound(math.inf) == math.inf


def test_gap_search_sieves_once(sieve_bounds):
    table = primes.sieve(primes.DEFAULT_LIMIT)
    table.slice(1, primes.GAP_SEARCH_INDEX)
    assert len(sieve_bounds) == 1
    assert sieve_bounds[0] <= 430_000


def test_gap_lemma_report_equals_the_loop(table):
    assert repr(primes.verify_gap_lemma(table)) == repr(gap_lemma_loop(table))


@pytest.mark.parametrize("j", [30, 5000, primes.GAP_SEARCH_INDEX - 1])
@pytest.mark.parametrize("reaches", [True, False])
def test_gap_lemma_decides_exactly_at_sqrt_2(table, j, reaches):
    # p_{j+1} set to the least integer whose square reaches 2 p_j^2, or to
    # the one below it: ratios either side of sqrt(2) within one part in p_j
    values = table.slice(1, primes.GAP_SEARCH_INDEX).copy()
    values[j] = math.isqrt(2 * int(values[j - 1]) ** 2 - 1) + reaches
    fake = _FixedTable(values)
    report = primes.verify_gap_lemma(fake)
    assert report.passed is not reaches and report.argmax_index == j
    assert report == gap_lemma_loop(fake)


def test_gap_lemma_verdict_on_doubles_is_the_integer_comparison(table):
    # at every j the lemma checks, and at every p below 2^20 with each q
    # whose ratio q / p is one of the four nearest sqrt(2): the double ratio
    # is below math.sqrt(2) exactly where q^2 < 2 p^2
    values = table.slice(1, primes.GAP_SEARCH_INDEX)
    p, q = values[:-1], values[1:]
    assert np.array_equal(q / p < math.sqrt(2), q * q < 2 * p * p)
    assert [b / a < math.sqrt(2) for a, b in zip(p.tolist(), q.tolist())] == [
        b * b < 2 * a * a for a, b in zip(p.tolist(), q.tolist())
    ]
    p = np.arange(1, 1 << 20, dtype=np.int64)
    nearest = np.floor(p * math.sqrt(2)).astype(np.int64)
    for q in (nearest - 1, nearest, nearest + 1, nearest + 2):
        assert np.array_equal(q / p < math.sqrt(2), q * q < 2 * p * p)


def test_gap_lemma_takes_the_first_of_equal_largest_ratios(table):
    # p_{j+1} / p_j set to 140/99, above every ratio of the table and below
    # sqrt(2), at two indices, by values that need not be prime
    values = table.slice(1, primes.GAP_SEARCH_INDEX).copy()
    for j in (5000, 20000):
        c = -(-int(values[j - 1]) // 99)
        values[j - 1], values[j] = 99 * c, 140 * c
    report = primes.verify_gap_lemma(_FixedTable(values))
    assert report.passed and report.argmax_index == 5000
    assert report.max_ratio == (140 * 140 / (99 * 99)) ** 0.5
    assert report == gap_lemma_loop(_FixedTable(values))
