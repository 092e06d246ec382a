import functools
import importlib.util
import pathlib

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


# The benchmark's run length (BENCHMARK.json "run_seconds") and the seeds
# whose greedy walks the tests replay.
PLAN_SECONDS = 18
PLAN_SEEDS = (1, 2, 3)


@pytest.fixture(scope="session")
def plan_walks():
    """(k, r, x, steps) of every ``approximate`` request of the benchmark's
    plans, on every workload at seeds 1-3."""
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [
        (int(argv[2]), float(argv[4]), float(argv[6]), int(argv[8]))
        for workload in workloads.WORKLOADS
        for seed in PLAN_SEEDS
        for argv in workloads.plan(workload, seed, PLAN_SECONDS)
        if argv[0] == "approximate"
    ]
