import gc
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import greedy_target_check, greedy_walk_loop, log_sigma_of_alphas, neighbours, tail_bracket
from sigma_density import density, explorer, primes, zeta
from sigma_density.brackets import Bracket
from sigma_density.errors import CapacityError, DomainError, IndeterminateError, PrecisionError
from sigma_density.zeta import FULL_SIZE, SIGN_SIZE, log_g_iv, to_iv


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


# The golden census, then k = 1..3 at r across the census range, among
# them every r where an end by libm's exp, nudged one double inward, was
# one double from the end that exp_out's bracket gives, in sweeps of 1101
# and 2001 evenly spaced r in [1.5, 2.6].
CENSUS_ENDS = [(1, 2.0)] + [
    (k, r)
    for k in (1, 2, 3)
    for r in (1.95, 2.0852, 2.17, 2.291, 2.331, 2.4207, 2.44435, 2.4575500000000003, 2.6)
]


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

    def test_peak_memory_per_integer(self, table):
        # value and cofactor are the only full-length arrays with the
        # half-length table of last factors; the rest of the sieve runs in
        # chunks, and the values are deduplicated without np.unique's copy.
        explorer.range_census(table, 3, 1.5, 1000)
        tracemalloc.start()
        try:
            explorer.range_census(table, 3, 1.5, 1_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 1_000_000


class TestGreedy:
    def test_a_table_short_of_the_walk_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"^prime slice \[1, 1000\] outside table of size 25$"):
            explorer.greedy_approximate(primes.sieve(100), 1, 1.5, 0.3, 1000)

    def test_zero_target(self, table):
        trace = explorer.greedy_approximate(table, 1, 1.5, 0.0, 10)
        assert trace.alphas.tolist() == [0] * 10
        assert trace.achieved == 0.0
        assert trace.residual == 0.0

    def test_exactly_attainable_target(self, table):
        r = 1.5
        x = math.log(1 + 2**-r)
        trace = explorer.greedy_approximate(table, 1, r, x, 50)
        assert trace.alphas[0] == 1
        assert all(a == 0 for a in trace.alphas[1:])
        assert trace.residual < 1e-15

    def test_residual_bounded_by_tail(self, table):
        k, r, steps = 1, 1.5, 10_000
        x = 0.9 * Bracket.from_iv(log_g_iv(k, to_iv(r))[0]).mid
        trace = explorer.greedy_approximate(table, k, r, x, steps)
        assert trace.residual >= 0
        assert trace.residual < tail_bracket(table, k, steps, r).hi

    def test_partial_sums_invariants(self, table):
        trace = explorer.greedy_approximate(table, 2, 1.4, 0.5, 200)
        C = trace.C
        assert all(c <= trace.target for c in C)
        assert all(b >= a for a, b in zip(C, C[1:]))
        # C_l + E_l climbs toward log G
        log_g = Bracket.from_iv(log_g_iv(2, to_iv(1.4))[0]).mid
        combined = [c + e for c, e in zip(C, trace.E)]
        assert all(b >= a - 1e-12 for a, b in zip(combined, combined[1:]))
        assert combined[-1] < log_g
        assert log_g - combined[-1] < tail_bracket(table, 2, 200, 1.4).hi + 1e-12

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
        value = log_sigma_of_alphas(table, trace.alphas, 1.5)
        assert value == pytest.approx(trace.achieved, abs=1e-12)

    def test_blocks_match_the_indexed_table(self, table):
        # The walk as it read the numpy table one entry at a time, over
        # several windows of each run.
        k, r, x = 3, 1.8, 0.4
        steps = 2 * 4096 + 5
        powers = table.slice(1, steps).astype(np.float64) ** (-r)
        partial_logs = np.log(
            np.cumsum(np.vstack([np.ones_like(powers)] + [powers**a for a in range(1, k + 1)]), axis=0)
        )
        alphas, C, D, E = [], [], [], []
        c = e = 0.0
        for l in range(steps):
            alpha = next((a for a in range(k, 0, -1) if c + partial_logs[a, l] <= x), 0)
            c += partial_logs[alpha, l]
            d = partial_logs[k, l] - partial_logs[alpha, l]
            e += d
            alphas.append(alpha)
            C.append(c)
            D.append(d)
            E.append(e)
        trace = explorer.greedy_approximate(table, k, r, x, steps)
        assert (trace.alphas.tolist(), trace.C.tolist(), trace.D.tolist(), trace.E.tolist()) == (alphas, C, D, E)

    @pytest.mark.parametrize("x", [0.1, 0.4])
    def test_a_walk_at_huge_k_stops_adding_rows_once_they_stop_growing(self, table, monkeypatch, x):
        # The largest k that a one-prime walk may take.  At p = 2 and r = 2
        # each p^-ar = 4^-a is exact (0 below 2**-1074), so the row-by-row
        # table is the log of the running sum of those powers, in place.
        k = explorer.GREEDY_MAX_ENTRIES - 1
        logs = np.ldexp(1.0, -2 * np.arange(k + 1))
        np.cumsum(logs, out=logs)
        stop = int(np.argmax(logs[1:] == logs[:-1])) + 1  # the first row that adds nothing
        np.log(logs, out=logs)
        fits = np.flatnonzero(logs[1:] <= x)
        alpha = int(fits[-1]) + 1 if len(fits) else 0
        compared = []
        array_equal = np.array_equal
        monkeypatch.setattr(np, "array_equal", lambda *args: compared.append(args) or array_equal(*args))
        trace = explorer.greedy_approximate(table, k, 2.0, x, 1)
        got = (trace.alphas.tolist(), trace.C.tolist(), trace.D.tolist(), trace.E.tolist())
        assert got == ([alpha], [logs[alpha]], [logs[k] - logs[alpha]], [logs[k] - logs[alpha]])
        assert (trace.achieved, trace.residual) == (logs[alpha], x - logs[alpha])
        # one comparison a row, up to the first row that adds nothing
        assert len(compared) == stop < 64

    def test_a_long_walk_runs_no_garbage_collection(self, table):
        # A walk that kept an object per step alive would trip the cyclic
        # collector every few hundred steps, and its full passes would land
        # in whatever runs next.
        explorer.greedy_approximate(table, 2, 1.9, 0.3, 20_000)
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            explorer.greedy_approximate(table, 1, 1.9, 0.3, 20_000)
        finally:
            gc.callbacks.remove(count)
        assert collections == []

    def test_domain_errors(self, table):
        with pytest.raises(DomainError):
            explorer.greedy_approximate(table, 1, 1.5, -0.1, 10)
        with pytest.raises(DomainError):
            explorer.greedy_approximate(table, 1, 1.5, 10.0, 10)
        from sigma_density.brackets import Bracket
        from sigma_density.zeta import log_g_iv, to_iv

        log_g = Bracket.from_iv(log_g_iv(1, to_iv(1.5))[0])
        with pytest.raises(IndeterminateError):
            explorer.greedy_approximate(table, 1, 1.5, log_g.lo, 10)


class TestTargetCheck:
    @pytest.mark.parametrize("k, r", [(1, 1.5), (2, 1.9), (3, 2.4), (10, 1.2), (1, 30.0), (2, 70.0), (1, 1e6)])
    def test_outcomes_and_messages_match_the_full_size_check(self, table, k, r):
        log_g = Bracket.from_iv(log_g_iv(k, to_iv(r))[0])
        for x in [*neighbours(log_g.lo, 4), *neighbours(log_g.hi, 4)]:
            if x < 0:
                continue
            expected = greedy_target_check(k, r, x)
            try:
                explorer.greedy_approximate(table, k, r, x, 10)
                outcome = None
            except (DomainError, IndeterminateError) as exc:
                outcome = type(exc), str(exc)
            assert outcome == expected, x

    def test_the_sign_size_accepts_only_below_the_full_bracket(self):
        # The docstring's argument, over k <= 100 and r up to where the
        # sign size's lower end stops being positive.
        rs = [1.0001, 1.01, *np.linspace(1.1, 3.0, 20).tolist(), 5.0, 10.0, 40.0, 60.0, 70.0, 75.0, 100.0]
        accepted = 0
        for k in (1, 2, 5, 100):
            for r in rs:
                lower = Bracket.from_iv(log_g_iv(k, to_iv(r), SIGN_SIZE)[0]).lo
                threshold = math.nextafter(lower, -math.inf)
                if threshold > 0:
                    accepted += 1
                    assert threshold <= Bracket.from_iv(log_g_iv(k, to_iv(r))[0]).lo
        assert accepted >= 4 * len(rs) - 8

    def test_a_walk_to_a_target_below_log_g_takes_no_full_size_zeta(self, table, monkeypatch):
        sizes = []

        def spy(s, size=FULL_SIZE):
            sizes.append(size)
            return original(s, size)

        walks = [(k, r, target(k, r, 0.999)) for k, r in ((1, 1.6), (2, 1.9), (7, 2.8))]
        original = zeta.zeta_iv
        monkeypatch.setattr(zeta, "zeta_iv", spy)
        for k, r, x in walks:
            explorer.greedy_approximate(table, k, r, x, 1000)
        assert sizes == [SIGN_SIZE] * 6


def assert_walk_matches_the_loop(table, k, r, x, steps):
    """The run walk's trace equals the prime-by-prime loop's bit for bit."""
    trace = explorer.greedy_approximate(table, k, r, x, steps)
    alphas, C, D, E = greedy_walk_loop(table.slice(1, steps), k, r, x)
    assert trace.alphas.dtype == np.intp
    assert trace.alphas.tolist() == alphas
    for got, expected in ((trace.C, C), (trace.D, D), (trace.E, E)):
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), np.array(expected).view(np.uint64))
    assert (trace.achieved, trace.residual) == (C[-1], x - C[-1])
    assert type(trace.achieved) is float
    return trace


def target(k, r, fraction):
    """fraction of the way from 0 to the lower end of the log G_k(r) bracket."""
    return fraction * Bracket.from_iv(log_g_iv(k, to_iv(r))[0]).lo


class TestGreedyRuns:
    def test_plan_walks(self, table, plan_walks):
        assert len(plan_walks) > 100
        for k, r, x, steps in plan_walks:
            assert_walk_matches_the_loop(table, k, r, x, steps)

    def test_zero_target(self, table):
        trace = assert_walk_matches_the_loop(table, 3, 1.5, 0.0, 5000)
        assert trace.alphas.tolist() == [0] * 5000

    @pytest.mark.parametrize("r, steps", [(1e6, 10), (4.0, 3000)])
    def test_zero_target_where_float_logs_read_zero(self, table, monkeypatch, r, steps):
        # log(1 + p^-r) rounds to 0.0 once p > 2^(53/r): from p = 2 at
        # r = 1e6, where log G's bracket straddles 0, and from p_1202 =
        # 9743 at r = 4.  The walk takes exponent 0 at every prime, with
        # no zeta evaluation.
        logs = np.log(1.0 + table.slice(1, steps).astype(np.float64) ** -r)
        assert np.flatnonzero(logs == 0.0)[0] == (0 if r > 4 else 1201)

        def refused(*args):
            raise AssertionError("x = 0 took a zeta evaluation")

        monkeypatch.setattr(explorer, "log_g_iv", refused)
        trace = assert_walk_matches_the_loop(table, 1, r, 0.0, steps)
        assert trace.alphas.tolist() == [0] * steps
        assert (trace.achieved, trace.residual) == (0.0, 0.0)

    def test_exactly_attainable_target(self, table):
        r = 1.5
        x = math.log(1 + 2**-r) + math.log(1 + 3**-r)
        trace = assert_walk_matches_the_loop(table, 1, r, x, 5000)
        assert trace.alphas[:2].tolist() == [1, 1]

    def test_stalled_walk_takes_every_later_prime(self, table):
        # Past the gap, at k = 1 and r = 2.198, the walk skips 3 and takes
        # every other prime: one run of alpha k to the end, and a residual
        # that stalls at about 0.0179.
        k, r, steps = 1, 2.198, 20_000
        x = target(k, r, 1.0) - math.log1p(3.0**-r) + 0.0179
        trace = assert_walk_matches_the_loop(table, k, r, x, steps)
        assert trace.alphas.tolist() == [1, 0] + [1] * (steps - 2)
        assert 0.0179 < trace.residual < 0.018

    @pytest.mark.parametrize("fraction", [0.2, 0.6, 0.95])
    def test_k_10(self, table, fraction):
        assert_walk_matches_the_loop(table, 10, 1.3, target(10, 1.3, fraction), 20_000)

    @pytest.mark.parametrize(
        "steps",
        [1, 2, explorer.GREEDY_WINDOW - 1, explorer.GREEDY_WINDOW, explorer.GREEDY_WINDOW + 1,
         3 * explorer.GREEDY_WINDOW + 1, 4095, 4096, 4097],
    )
    @pytest.mark.parametrize("k, r, fraction", [(1, 1.6, 0.3), (2, 2.4, 0.999), (3, 1.2, 0.5)])
    def test_short_walks(self, table, k, r, fraction, steps):
        assert_walk_matches_the_loop(table, k, r, target(k, r, fraction), steps)

    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(1, 10),
        r=st.floats(1.01, 4.0),
        fraction=st.floats(0.0, 1.0, exclude_max=True),
        steps=st.integers(1, 3000),
    )
    def test_random_walks(self, table, k, r, fraction, steps):
        assert_walk_matches_the_loop(table, k, r, target(k, r, fraction), steps)

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 3000),
        r=st.floats(1.01, 4.0),
        fraction=st.floats(0.0, 1.0, exclude_max=True),
        steps=st.integers(1, 12),
    )
    def test_the_exponent_search_at_large_k(self, table, k, r, fraction, steps):
        # each exponent that no run decides is a binary search over its
        # prime's column, which the loop scans from k down
        assert_walk_matches_the_loop(table, k, r, target(k, r, fraction), steps)

    @pytest.mark.parametrize("x", [0.0, 0.1, 0.3, 0.4])
    def test_the_exponent_search_at_the_largest_k(self, table, x):
        # the loop's table at k = 3999999 would take about 0.5 GB, so the
        # walk of one prime is held against the loop's rule over the
        # exact column: at p = 2 and r = 2 each 4^-a is exact
        k = explorer.GREEDY_MAX_ENTRIES - 1
        logs = np.log(np.cumsum(np.ldexp(1.0, -2 * np.arange(k + 1))))
        fits = np.flatnonzero(0.0 + logs[1:] <= x)  # the loop's test at each alpha >= 1
        alpha = int(fits[-1]) + 1 if len(fits) else 0
        trace = explorer.greedy_approximate(table, k, 2.0, x, 1)
        assert (trace.alphas.tolist(), trace.C.tolist()) == ([alpha], [logs[alpha]])


class TestCensus:
    def test_needs_no_primes_from_the_table(self, table):
        # the census sieves its own primes, and its scan of ten levels reads
        # only the ten primes up to 30
        small = explorer.range_census(primes.sieve(30), 2, 1.7, 100_000)
        census = explorer.range_census(table, 2, 1.7, 100_000)
        assert np.array_equal(small.values, census.values)
        assert small.analytic_gaps == census.analytic_gaps

    def test_bound_one(self, table):
        census = explorer.range_census(table, 1, 2, 1)
        assert list(census.values) == [1.0]
        assert census.estimated_intervals == 1
        assert len(census.gaps) == 0

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
        for idx, a in enumerate(trace.alphas, 1):
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

    @pytest.mark.parametrize("k, r", CENSUS_ENDS)
    def test_linear_ends_hold_the_certified_gap(self, table, monkeypatch, k, r):
        # each gap's two ends take one exp_out each, and, against mpmath at
        # 50 digits, stay inside (G_k(r) / prod_{i<=m} LF(p_i), 1 + p_m^-r)
        calls = []
        exp_out = explorer.exp_out
        monkeypatch.setattr(explorer, "exp_out", lambda t, prec: calls.append(t) or exp_out(t, prec))
        census = explorer.range_census(table, k, r, 10)
        assert census.analytic_gaps
        assert len(calls) == 2 * len(census.analytic_gaps)
        with mpmath.workdps(50):
            s = mpmath.mpf(r)
            head = mpmath.zeta(s) / mpmath.zeta((k + 1) * s)
            for m, left, right in census.analytic_gaps:
                p = [mpmath.mpf(q) for q in table.slice(1, m).tolist()]
                prefix = mpmath.fprod([(1 - q ** (-(k + 1) * s)) / (1 - q**-s) for q in p])
                assert mpmath.mpf(left) >= head / prefix, m
                assert mpmath.mpf(right) <= 1 + p[-1] ** -s, m

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
        gaps = explorer.analytic_gap_scan(table, 1, 1.95, 10)
        assert gaps and gaps[0][0] == 1

    def test_empty_below_threshold(self, table):
        assert explorer.analytic_gap_scan(table, 1, 1.5, 10) == ()

    def test_upper_endpoint_is_certified(self, table):
        k, r = 1, 1.9046
        ((_, _, hi),) = explorer.analytic_gap_scan(table, k, r, 1)
        with mpmath.workprec(300):
            exact = mpmath.log(1 + mpmath.mpf(2) ** (-mpmath.mpf(r)))
            assert mpmath.mpf(hi) <= exact

    def test_fired_intervals_disjoint(self, table):
        fired = [(lo, hi) for _, lo, hi in explorer.analytic_gap_scan(table, 1, 2.1, 8)]
        assert len(fired) >= 2
        # intervals are in decreasing position as m grows
        for (lo1, hi1), (lo2, hi2) in zip(fired, fired[1:]):
            assert hi2 <= lo1 or hi1 <= lo2

    @pytest.mark.parametrize(
        "k, r", [(1, 1.95), (2, 2.1), (1, 9.9), (math.inf, 1.9), (3, 1.5), (1, 195.0), (1, 300.0)]
    )
    def test_returns_exactly_the_gap_levels_of_t_levels(self, table, k, r):
        # the levels whose T is certified positive, in ascending m, each
        # with the gap t_levels yields there; at k = 1, r = 300 every T
        # bracket straddles 0 (ROADMAP item 2) and the scan is empty
        r_iv = to_iv(r)
        levels = list(density.t_levels(table, k, r_iv, log_g_iv(k, r_iv), range(1, 11)))
        scan = explorer.analytic_gap_scan(table, k, r, 10)
        assert [m for m, _, _ in scan] == [m for m, t, _ in levels if t.strictly_positive()]
        assert list(scan) == [(m, *gap) for m, _, gap in levels if gap is not None]
        if r == 300.0:
            assert all(t.straddles_zero() for _, t, _ in levels) and scan == ()
