import math

import numpy as np
import pytest

from sigma_density import primes
from sigma_density.errors import CapacityError, DomainError


def _trial_division_primes(limit):
    found = []
    for n in range(2, limit + 1):
        if all(n % p for p in found if p * p <= n):
            found.append(n)
    return found


def eager_sieve(limit):
    """The primes up to ``limit``, sieved at once: the table's body before
    it sieved on demand, kept as the oracle."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def gap_lemma_loop(table):
    """The gap check one index at a time in Python ints: the library's
    loop before it ran in int64 arrays, kept as the oracle."""
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
    with pytest.raises(DomainError, match=r"^prime slice \[0, 2\] outside table of size 4$"):
        primes.sieve(10).slice(0, 2)


LIMITS = [2, 3, 10, 1000, 1025, 5000, 2_000_000]


@pytest.mark.parametrize("limit", LIMITS)
def test_on_demand_table_matches_the_eager_sieve(limit):
    expected = eager_sieve(limit)
    n = len(expected)
    reads = primes.sieve(limit)
    picks = [n // 3 + 1, 1, n, n // 2 + 1, max(n - 1, 1)]
    assert [reads.nth(i) for i in picks] == [int(expected[i - 1]) for i in picks]
    for start, stop in [(1, 1), (1, n), (n, n), (n // 3 + 1, n // 2 + 1), (2, 1)]:
        assert np.array_equal(reads.slice(start, stop), expected[start - 1 : stop])
    whole = primes.sieve(limit)
    assert whole.primes.dtype == np.int64
    assert np.array_equal(whole.primes, expected)
    assert len(whole) == n
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
    table.nth(1000)  # p_1000 = 7919
    assert max(sieve_bounds) < primes.SIEVE_GROWTH * 7919
    table.nth(1)
    assert len(sieve_bounds) == 3
    # growth is geometric, so the sieves together cost a bounded multiple of the last
    assert sum(sieve_bounds) < primes.SIEVE_GROWTH / (primes.SIEVE_GROWTH - 1) * sieve_bounds[-1] + 1


def test_whole_table_reads_sieve_to_the_limit(sieve_bounds):
    assert len(primes.sieve(5000)) == 669
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
    assert len(table) >= 100_001


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
    below = eager_sieve(primes.GAP_SEARCH_BOUND)
    assert len(below) + 1 == primes.GAP_SEARCH_INDEX
    assert below[-1] < primes.GAP_SEARCH_BOUND < primes.sieve(500_000).nth(primes.GAP_SEARCH_INDEX)


def test_gap_lemma_matches_a_search_of_the_whole_table(sieve_bounds):
    report = primes.verify_gap_lemma(primes.sieve(primes.DEFAULT_LIMIT))
    assert max(sieve_bounds) < primes.DEFAULT_LIMIT
    expected = eager_sieve(primes.DEFAULT_LIMIT).tolist()
    n_below = int(np.searchsorted(expected, primes.GAP_SEARCH_BOUND))
    ratios = {j: expected[j] / expected[j - 1] for j in range(1, n_below + 1)}
    assert report.checked == n_below - len(primes.GAP_EXCLUDED_INDICES)
    assert report.excluded == tuple((j, ratios[j]) for j in primes.GAP_EXCLUDED_INDICES)
    kept = {j: q for j, q in ratios.items() if j not in primes.GAP_EXCLUDED_INDICES}
    assert report.argmax_index == max(kept, key=kept.get)


def test_nth_prime_bound_holds_across_the_default_table():
    expected = eager_sieve(primes.DEFAULT_LIMIT)
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
