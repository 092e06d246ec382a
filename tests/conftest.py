import functools

import pytest

from sigma_density import primes


@pytest.fixture(scope="session")
def table():
    return primes.load_or_sieve(primes.DEFAULT_LIMIT)


@pytest.fixture
def sieve_bounds(monkeypatch):
    """The bound of every sieve run while the test runs: the pure first
    sieve's and numpy's."""
    bounds = []

    def spy(sieve, bound):
        bounds.append(bound)
        return sieve(bound)

    for name in ("_first_sieve", "_eratosthenes"):
        monkeypatch.setattr(primes, name, functools.partial(spy, getattr(primes, name)))
    return bounds
