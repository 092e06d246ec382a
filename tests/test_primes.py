import math

import pytest

from sigma_density import primes
from sigma_density.errors import CapacityError, DomainError


def _trial_division_primes(limit):
    found = []
    for n in range(2, limit + 1):
        if all(n % p for p in found if p * p <= n):
            found.append(n)
    return found


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
    with pytest.raises(DomainError):
        small.nth(5)
    with pytest.raises(DomainError):
        small.nth(0)
    with pytest.raises(DomainError):
        small.slice(1, 5)


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
