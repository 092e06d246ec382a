import math

import mpmath
import numpy as np
import pytest

from sigma_density import density, explorer
from sigma_density.errors import CapacityError, DomainError, IndeterminateError, PrecisionError
from sigma_density.zeta import g_k, log_sigma_restricted


def sigma_values_loop(k, r, bound):
    """Restricted divisor sums of every admissible n <= bound, by direct
    enumeration with a smallest-prime-factor sieve: the census's original
    loop, kept as the oracle of ``explorer._sigma_values``."""
    spf = np.zeros(bound + 1, dtype=np.int64)
    for p in range(2, int(bound**0.5) + 1):
        if spf[p] == 0:
            spf[p * p :: p][spf[p * p :: p] == 0] = p
    values = [1.0]
    for n in range(2, bound + 1):
        m = n
        value = 1.0
        admissible = True
        while m > 1:
            p = int(spf[m]) or m
            exponent = 0
            while m % p == 0:
                m //= p
                exponent += 1
            if exponent > k:
                admissible = False
                break
            x = float(p) ** (-r)
            value *= (1.0 - x ** (exponent + 1)) / (1.0 - x)
        if admissible:
            values.append(value)
    return np.unique(np.asarray(values))


SIEVE_KS = (1, 2, 3, 10, 1000)
# At r = 40 the power x ** (e + 1) underflows for every prime.
SIEVE_RS = (1.0001, 1.5, 2.0, 2.6, 40.0)


def assert_bit_identical(got, expected):
    # Every value is >= 1, so equal values are equal bit patterns.
    assert got.dtype == expected.dtype == np.float64
    assert np.array_equal(got, expected)


class TestSieve:
    @pytest.mark.parametrize("r", SIEVE_RS)
    @pytest.mark.parametrize("k", SIEVE_KS)
    def test_matches_the_loop_bit_for_bit(self, k, r):
        for bound in (1, 2, 3, 30, 10_000):
            assert_bit_identical(explorer._sigma_values(k, r, bound), sigma_values_loop(k, r, bound))

    # The loop takes about 0.2 s at 1e5, so each k is paired with one r.
    @pytest.mark.parametrize("k, r", zip(SIEVE_KS, SIEVE_RS))
    def test_matches_the_loop_at_1e5(self, k, r):
        assert_bit_identical(explorer._sigma_values(k, r, 100_000), sigma_values_loop(k, r, 100_000))


class TestGreedy:
    def test_zero_target(self, table):
        trace = explorer.greedy_approximate(table, 1, 1.5, 0.0, 10)
        assert trace.alphas == [0] * 10
        assert trace.achieved == 0.0
        assert trace.residual == 0.0
        assert trace.witness().entries == ()

    def test_exactly_attainable_target(self, table):
        r = 1.5
        x = math.log(1 + 2**-r)
        trace = explorer.greedy_approximate(table, 1, r, x, 50)
        assert trace.alphas[0] == 1
        assert all(a == 0 for a in trace.alphas[1:])
        assert trace.residual < 1e-15

    def test_residual_bounded_by_tail(self, table):
        k, r, steps = 1, 1.5, 10_000
        x = 0.9 * math.log(g_k(k, r, 1e-10).mid)
        trace = explorer.greedy_approximate(table, k, r, x, steps)
        assert trace.residual >= 0
        assert trace.residual < density.tail(table, k, steps, r).hi

    def test_partial_sums_invariants(self, table):
        trace = explorer.greedy_approximate(table, 2, 1.4, 0.5, 200)
        C = trace.C
        assert all(c <= trace.target for c in C)
        assert all(b >= a for a, b in zip(C, C[1:]))
        # C_l + E_l climbs toward log G
        log_g = math.log(g_k(2, 1.4, 1e-10).mid)
        combined = [c + e for c, e in zip(C, trace.E)]
        assert all(b >= a - 1e-12 for a, b in zip(combined, combined[1:]))
        assert combined[-1] < log_g
        assert log_g - combined[-1] < density.tail(table, 2, 200, 1.4).hi + 1e-12

    def test_per_step_optimality(self, table):
        # taking alpha + 1 at any step would overshoot the target
        k, r = 3, 1.6
        trace = explorer.greedy_approximate(table, k, r, 0.7, 100)
        c_before = 0.0
        for l, alpha in enumerate(trace.alphas):
            p = float(table.nth(l + 1))
            if alpha < k:
                bigger = math.log(sum(p ** (-j * r) for j in range(alpha + 2)))
                assert c_before + bigger > trace.target
            c_before = trace.C[l]

    def test_witness_reevaluates(self, table):
        trace = explorer.greedy_approximate(table, 2, 1.5, 0.6, 500)
        value = log_sigma_restricted(trace.witness(), 1.5, table)
        assert value == pytest.approx(trace.achieved, abs=1e-12)

    def test_domain_errors(self, table):
        with pytest.raises(DomainError):
            explorer.greedy_approximate(table, 1, 1.5, -0.1, 10)
        with pytest.raises(DomainError):
            explorer.greedy_approximate(table, 1, 1.5, 10.0, 10)
        from sigma_density.brackets import Bracket
        from sigma_density.zeta import log_g_iv, to_iv

        log_g = Bracket.from_iv(log_g_iv(1, to_iv(1.5)))
        with pytest.raises(IndeterminateError):
            explorer.greedy_approximate(table, 1, 1.5, log_g.lo, 10)


class TestCensus:
    def test_bound_one(self, table):
        census = explorer.range_census(table, 1, 2, 1)
        assert list(census.values) == [1.0]
        assert census.estimated_intervals == 1
        assert census.gaps == ()

    def test_not_dense_gap_avoided(self, table):
        census = explorer.range_census(table, 1, 2, 20_000)
        assert census.analytic_gaps, "the first-level gap should fire at r=2"
        for m, left, right in census.analytic_gaps:
            inside = census.values[(census.values > left) & (census.values < right)]
            assert inside.size == 0

    def test_empirical_gap_contains_analytic(self, table):
        census = explorer.range_census(table, 1, 2, 20_000)
        m, left, right = census.analytic_gaps[0]
        covering = [
            g for g in census.gaps if g[0] <= left + census.resolution and g[1] >= right - census.resolution
        ]
        assert covering
        assert covering[0][2] >= (right - left) - 2 * census.resolution

    def test_dense_regime_single_interval(self, table):
        # fixed coarse resolution: enumeration artifacts near the supremum
        # (values there need enormous smooth integers) stay sub-resolution
        census = explorer.range_census(table, 1, 1.5, 50_000, resolution=0.05)
        assert census.analytic_gaps == ()
        assert census.estimated_intervals == 1

    def test_greedy_witness_value_in_census(self, table):
        # a witness over few primes is a small integer, so its value shows up
        trace = explorer.greedy_approximate(table, 1, 2.0, 0.21, 5)
        n = 1
        for idx, a in trace.witness().entries:
            n *= table.nth(idx) ** a
        census = explorer.range_census(table, 1, 2.0, max(n, 10))
        assert np.min(np.abs(census.values - math.exp(trace.achieved))) < 1e-12

    @pytest.mark.parametrize("k, r", [(1, 2.3784), (3, 2.4273)])
    def test_no_value_inside_reported_gaps(self, table, k, r):
        # n = p_m attains the upper end of the gap at level m exactly, so
        # the linear endpoints must not be rounded outward
        census = explorer.range_census(table, k, r, 30)
        assert census.analytic_gaps
        for m, left, right in census.analytic_gaps:
            inside = census.values[(census.values > left) & (census.values < right)]
            assert inside.size == 0, (m, left, right, inside)

    def test_capacity_error(self, table):
        with pytest.raises(CapacityError):
            explorer.range_census(table, 1, 2, explorer.CENSUS_MAX_BOUND + 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_gaps_below_r_10_are_not_empty(self, table, k):
        census = explorer.range_census(table, k, 9.9, 100)
        assert len(census.analytic_gaps) == explorer.CENSUS_SCAN_LEVELS
        assert all(left < right for _, left, right in census.analytic_gaps)

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_gap_too_narrow_for_doubles_is_an_error(self, table, k):
        # at r = 10.15 the level-10 gap rounds inward to lo >= hi
        with pytest.raises(PrecisionError, match=r"level m = 10 .* r = 10\.15$"):
            explorer.range_census(table, k, 10.15, 100)


class TestAnalyticScan:
    def test_fires_at_m1_above_threshold(self, table):
        entries = explorer.analytic_gap_scan(table, 1, 1.95, 10)
        positive = [e for e in entries if e.status == "positive"]
        assert positive and positive[0].m == 1

    def test_empty_below_threshold(self, table):
        entries = explorer.analytic_gap_scan(table, 1, 1.5, 10)
        assert all(e.status == "nonpositive" for e in entries)

    def test_upper_endpoint_is_certified(self, table):
        k, r = 1, 1.9046
        (entry,) = explorer.analytic_gap_scan(table, k, r, 1)
        with mpmath.workprec(300):
            exact = mpmath.log(1 + mpmath.mpf(2) ** (-mpmath.mpf(r)))
            assert mpmath.mpf(entry.interval[1]) <= exact

    def test_intervals_are_gap_interval_cores(self, table):
        k, r = 2, 2.1
        for entry in explorer.analytic_gap_scan(table, k, r, 8):
            gap = density.gap_interval(table, k, entry.m, r)
            assert entry.interval == (gap.inner if gap else None)

    def test_fired_intervals_disjoint(self, table):
        entries = explorer.analytic_gap_scan(table, 1, 2.1, 8)
        fired = [e.interval for e in entries if e.interval is not None]
        assert len(fired) >= 2
        # intervals are in decreasing position as m grows
        for (lo1, hi1), (lo2, hi2) in zip(fired, fired[1:]):
            assert hi2 <= lo1 or hi1 <= lo2
