import pytest

from sigma_density import primes


@pytest.fixture(scope="session")
def table():
    return primes.load_or_sieve(primes.DEFAULT_LIMIT)


@pytest.fixture
def sieve_bounds(monkeypatch):
    """The bound of every sieve run while the test runs."""
    bounds = []
    sieve = primes._eratosthenes

    def spy(bound):
        bounds.append(bound)
        return sieve(bound)

    monkeypatch.setattr(primes, "_eratosthenes", spy)
    return bounds
