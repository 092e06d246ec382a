"""Certified numerics for the density thresholds of restricted divisor
sums: prime tables, bracketed zeta evaluation, the density criterion,
threshold solving, greedy range approximation, and an empirical gap
census, all behind a deterministic CLI."""

__version__ = "0.1.0"

from .brackets import Bracket, PRECISION_FLOOR
from .errors import (
    CapacityError,
    DomainError,
    IndeterminateError,
    PrecisionError,
    SigmaDensityError,
)
from .primes import PrimeTable, load_or_sieve, sieve, verify_gap_lemma

__all__ = [
    "Bracket",
    "PRECISION_FLOOR",
    "CapacityError",
    "DomainError",
    "IndeterminateError",
    "PrecisionError",
    "SigmaDensityError",
    "PrimeTable",
    "load_or_sieve",
    "sieve",
    "verify_gap_lemma",
    "__version__",
]
