import math
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv

from oracles import (
    V_TRUNCATION,
    REFERENCE_SLACK,
    contains,
    cover_claims_oracle,
    enclosure_width,
    iv_bracket,
    iv_pow,
    library_bracket,
    limit_equation,
    log_g_bracket_oracle,
    log_local_factor_iv,
    mpi,
    r1_surrogate,
    seed_density_verdict,
    t_levels_oracle,
    t_mpmath,
    t_sign_oracle,
    tail_bracket,
    to_units,
    v_func,
)
from sigma_density import density, explorer, primes, solver, zeta
from sigma_density.brackets import Bracket
from sigma_density.errors import DomainError, IndeterminateError
from sigma_density.zeta import exponent, log_g_iv


def assert_no_wider(new: Bracket, old: Bracket):
    """A printed bracket equal to the seed route's, or nested in it."""
    assert old.lo <= new.lo and new.hi <= old.hi, (new, old)


def assert_levels_no_wider(new, old):
    """t_levels' (m, T, gap) against the seed route's: each T bracket
    equal or nested, and each certified gap core at least as wide."""
    assert [m for m, _, _ in new] == [m for m, _, _ in old]
    for (_, t, gap), (_, t_old, gap_old) in zip(new, old):
        assert_no_wider(t, t_old)
        if gap_old is not None:
            assert gap[0] <= gap_old[0] and gap_old[1] <= gap[1]

PI = math.pi
LOG_10_OVER_PI_SQ = math.log(10 / PI**2)


def f(table, k, m, r):
    """Oracle: f_k(m, r) = log(1 + p_m^{-r}) + sum_{i<=m} log(local factor
    at p_i), so that T_k(m, r) = f_k(m, r) - log G_k(r)."""
    r_iv = iv.mpf(r)
    head = iv.log(1 + iv.mpf(table.nth(m)) ** -r_iv)
    prefix = iv.mpf(0)
    for i in range(1, m + 1):
        prefix += log_local_factor_iv(table.nth(i), k, r_iv)
    return iv_bracket(head + prefix)


def log_g(k, r):
    return library_bracket(log_g_iv(k, exponent(r))[0])


def j_bracket(table, m, x):
    """J_m(x): log p_m / (p_m^x + 1) minus the same expression summed over
    the next six primes, the claim ``j_negative_m*`` proves negative."""
    lo, hi = density._rise(table, density._power_table(), m, 6, density._log_over, x, x)
    return library_bracket((-hi, -lo))


def gap_core(table, k, m, r):
    """The certified forbidden log-interval at level m, or None."""
    gaps = {level: (lo, hi) for level, lo, hi in explorer.analytic_gap_scan(table, k, r, m)}
    return gaps.get(m)


# Primes after p_m summed in double precision by t_derivative before its
# tail bound takes over.
DERIVATIVE_PREFIX_PRIMES = 5000


def t_derivative(table, k, m, r):
    """Oracle: d/dr of T_k(m, r) on (1, 7/3), as a bracket.

    The derivative series is

        sum_{i>m} w_i(r) log p_i  -  log p_m / (p_m^r + 1),
        w_i = (sum_{a=1}^k a p_i^{-ar}) / (sum_{b=0}^k p_i^{-br}).

    The first DERIVATIVE_PREFIX_PRIMES terms are summed in double precision
    with a rounding pad.  The dropped tail is nonnegative; it is bounded above
    by sum_{i>I} log(p_i) p_i^{-r} / (1 - p_{I+1}^{-r})^2, and the prime
    sum in turn by the integral of log(x) x^{-r} from p_I, giving
    p_I^{1-r} (log p_I / (r-1) + 1/(r-1)^2).
    """
    if not 1 < r < density.R_MONOTONE_HI:
        raise DomainError(f"derivative domain is (1, 7/3), got r={r}")
    last = m + DERIVATIVE_PREFIX_PRIMES
    p = table.slice(m + 1, last).astype(np.float64)
    x = p ** (-r)
    numerator = np.zeros_like(x)
    denominator = np.ones_like(x)
    xa = np.ones_like(x)
    for a in range(1, k + 1):
        xa = xa * x
        numerator += a * xa
        denominator += xa
    terms = (numerator / denominator) * np.log(p)
    prefix = float(np.sum(terms))
    rounding = (math.log2(len(terms)) + 6) * 2.3e-16 * float(np.sum(np.abs(terms)))

    p_last = float(table.nth(last))
    x_next = float(table.nth(last + 1)) ** (-r)
    tail_hi = (
        p_last ** (1.0 - r)
        * (math.log(p_last) / (r - 1.0) + 1.0 / (r - 1.0) ** 2)
        / (1.0 - x_next) ** 2
    )

    pm = float(table.nth(m))
    pm_term = math.log(pm) / (pm**r + 1.0)
    pm_pad = 4e-16 * abs(pm_term)

    lo = prefix - rounding - pm_term - pm_pad
    hi = prefix + rounding + tail_hi * (1 + 1e-14) - pm_term + pm_pad
    return Bracket(math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))


class TestF:
    def test_hand_evaluations(self, table):
        b = f(table, 1, 1, 2)
        assert contains(b, 2 * math.log(5 / 4))
        b = f(table, 1, 2, 2)
        assert contains(b, math.log(10 / 9) + math.log(5 / 4) + math.log(10 / 9))

    def test_structural_identity_in_k(self, table):
        # at m = 1, changing k shifts f by the log of the local-factor ratio
        r = 1.7
        d = f(table, 3, 1, r).mid - f(table, 1, 1, r).mid
        x = 2**-r
        expected = math.log(1 + x + x**2 + x**3) - math.log(1 + x)
        assert d == pytest.approx(expected, abs=1e-12)


class TestTail:
    def test_m_zero_is_log_g(self, table):
        assert tail_bracket(table, 2, 0, 1.5) == density.density_report(table, 2, 1.5).log_g

    def test_closed_form(self, table):
        b = tail_bracket(table, 1, 1, 2)
        assert contains(b, math.log(15 / PI**2) - math.log(5 / 4))
        # the lower end of the level-1 gap is this tail
        assert gap_core(table, 1, 1, 2.0)[0] == b.hi

    def test_strictly_decreasing_in_m(self, table):
        values = [tail_bracket(table, 1, m, 1.5).mid for m in range(0, 8)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestT:
    def test_positive_at_two_for_all_k(self, table):
        for k in (1, 2, 3, 10, 25):
            assert density.t_func(table, k, 1, 2).lo >= LOG_10_OVER_PI_SQ - 1e-12
            assert density.t_func(table, k, 2, 2).lo >= LOG_10_OVER_PI_SQ - 1e-12

    def test_diverges_near_one(self, table):
        assert density.t_func(table, 1, 1, 1.01).hi < -1

    @settings(max_examples=20, deadline=None)
    @given(
        k=st.integers(1, 6),
        m=st.sampled_from([1, 2, 4]),
        r=st.floats(min_value=1.2, max_value=2.3),
    )
    def test_two_formulas_agree(self, table, k, m, r):
        direct = density.t_func(table, k, m, r)
        f_b, g_b = f(table, k, m, r), log_g(k, r)
        assembled = iv_bracket(iv.mpf([f_b.lo, f_b.hi]) - iv.mpf([g_b.lo, g_b.hi]))
        assert max(direct.lo, assembled.lo) <= min(direct.hi, assembled.hi)

    def test_monotone_in_r(self, table):
        for k, m in ((1, 1), (2, 2), (5, 4)):
            grid = [1.1 + 0.1 * i for i in range(12)]  # up to 2.2 < 7/3
            mids = [density.t_func(table, k, m, r).mid for r in grid]
            assert all(b > a for a, b in zip(mids, mids[1:]))

    def test_reduction_beyond_small_m(self, table):
        # whenever the three-point test clears, so does every other m
        for k, r in ((1, 1.5), (2, 1.8), (4, 1.86)):
            if all(density.t_func(table, k, m, r).nonpositive() for m in (1, 2, 4)):
                for m in [3] + list(range(5, 21)):
                    assert density.t_func(table, k, m, r).nonpositive()


class TestOneLogPerPrime:
    """Every p^-r of the T route is exp(-r log p) from one cached log p, or
    the entry for p of zeta(r)'s table, which takes the same exp: no
    printed bracket is wider than the seed route's on iv objects, which
    takes a fresh log and an interval exp for every power and the mpi
    zeta kernel."""

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.one_of(st.integers(1, 12), st.integers(1, 10**6)),
        ms=st.lists(st.integers(1, 30), min_size=1, max_size=5, unique=True).map(sorted),
        r=st.floats(min_value=1.0001, max_value=40.0),
    )
    def test_t_log_g_and_gaps_equal_the_oracle_route(self, table, k, ms, r):
        s = exponent(r)
        log_g = log_g_iv(k, s)
        assert_no_wider(library_bracket(log_g[0]), log_g_bracket_oracle(k, r))
        # T and the gap core at each level, from each p^-r, log local factor
        # and head, with p_i from the table
        levels = density.t_levels(table, k, s, log_g, ms)
        assert_levels_no_wider(list(levels), list(t_levels_oracle(table, k, r, ms)))

    @pytest.mark.parametrize("x", [1.0001, 1.5, 7 / 3, [1.0001, 7 / 3], [1.8, 1.9]])
    @pytest.mark.parametrize("p", [2, 3, 7, 31, 1999993])
    def test_cover_terms_equal_the_oracle_route(self, p, x):
        # each power holds the image of the cell, at its ends, and is no
        # wider than an interval exp at each end, once its ends are rounded
        # outward to the cover's unit; the terms built on p^x hold theirs
        # and print inside the oracle route's doubles
        a, b = x if isinstance(x, list) else (x, x)
        power, x = density._power_table(), iv.mpf(x)
        log_p = iv.log(iv.mpf(p))
        q = iv_pow(iv.mpf(p), x)
        with mpmath.workprec(300):
            ends = mpmath.mpf(a), mpmath.mpf(b)
            for j, oracle in ((-1, iv_pow(iv.mpf(p), -x)), (-2, iv_pow(iv.mpf(p), -(2 * x))), (1, q)):
                got = mpi(power(p, j, a, b))
                lo, hi = sorted(mpmath.power(p, j * e) for e in ends)
                assert mpmath.mpf(got[0]) <= lo and hi <= mpmath.mpf(got[1])
                assert enclosure_width(got) <= enclosure_width(oracle._mpi_) + mpmath.ldexp(2, -density.UNIT)
            lp = mpmath.log(p)
            for term, oracle, f in (
                (density._log_over, log_p / (q + 1), lambda e: lp / (mpmath.power(p, e) + 1)),
                (density._log_sq_over, log_p**2 / (q + 2 + 1 / q), lambda e: lp**2 / (mpmath.power(p, e) + 2 + mpmath.power(p, -e))),
            ):
                got = mpi(term(p, power(p, 1, a, b)))
                lo, hi = f(ends[1]), f(ends[0])  # decreasing in x
                assert mpmath.mpf(got[0]) <= lo * (1 + REFERENCE_SLACK) and hi * (1 - REFERENCE_SLACK) <= mpmath.mpf(got[1])
                assert_no_wider(iv_bracket(got), iv_bracket(oracle))


class TestLogFreeSign:
    """density.t_sign reads the sign of T from products, with no log."""

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.one_of(st.integers(1, 12), st.integers(1, 10**6)),
        m=st.integers(1, 30),
        r=st.floats(min_value=1.0001, max_value=2.0),
    )
    def test_equals_the_sign_of_the_full_size_t_on_the_solver_range(self, table, k, m, r):
        # the solver takes the printed log form's sign where the sign-size
        # products are undecided: it decides wherever the full-size
        # products do
        t = density.t_func(table, k, m, r).certified_sign()
        assert t_sign_oracle(table, k, m, r, zeta.FULL_SIZE) == t
        assert density.t_sign(table, k, m, r) in (None, t)

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.one_of(st.integers(1, 12), st.integers(1, 10**6)),
        m=st.integers(1, 30),
        r=st.floats(min_value=1.0001, max_value=40.0),
    )
    def test_agrees_with_the_full_size_t_wherever_both_decide(self, table, k, m, r):
        # Where T is about 1e-60 or less both routes can be undecided, and
        # they stop deciding at slightly different r (up to 0.03 apart).
        t = density.t_func(table, k, m, r).certified_sign()
        full = t_sign_oracle(table, k, m, r, zeta.FULL_SIZE)
        assert None in (t, full) or full == t
        assert density.t_sign(table, k, m, r) in (None, t)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.one_of(st.integers(1, 12), st.just(10**6), st.just(math.inf)),
        m=st.integers(1, 30),
        r=st.floats(min_value=1.0001, max_value=40.0),
    )
    def test_equals_the_sign_of_t_func_wherever_both_decide(self, table, k, m, r):
        # the sign test multiplies the local factors whose logs t_func sums
        sign = density.t_sign(table, k, m, r)
        t = density.t_func(table, k, m, r).certified_sign()
        assert None in (sign, t) or sign == t

    @pytest.mark.parametrize(
        "k, m, r",
        [(1, 2, 48.79), (12, 4, 27.30129462509871), (4, 9, 16.5849847116317), (math.inf, 18, 12.275073215122518)],
    )
    def test_decides_a_t_near_1e_23(self, table, k, m, r):
        # T is near 1e-23, about the width that ~4m roundings of 2^-80
        # near 1 would give the products at SIGN_SIZE.prec; at that
        # precision the last two stay undecided
        assert density.t_sign(table, k, m, r) == 1 == density.t_func(table, k, m, r).certified_sign()


class TestOneLocalFactorRoute:
    """Every LF_k(p_i) of T, printed, scanned or signed, is one that
    density._local_factors yields: with a generator whose factors are all
    1, every route reads T = log(1 + x_m) - log G_k(r), which a second
    loop over the factors would move."""

    # T_k(m, r) > 0 at each point, and so are the sign and a gap
    POINTS = [(1, 1, 1.95), (3, 2, 1.95), (math.inf, 2, 1.95)]

    @pytest.fixture
    def taken(self, monkeypatch):
        """The x_i of every factor taken while the test runs; each factor
        is replaced by 1."""
        taken = []
        local_factors = density._local_factors

        def unit_factors(*args):
            one = 1 << args[-1].unit
            for x, _ in local_factors(*args):
                taken.append(x)
                yield x, (one, one)

        monkeypatch.setattr(density, "_local_factors", unit_factors)
        return taken

    @staticmethod
    def without_prefix(k, r, x):
        """log(1 + x) - log G_k(r): T with every factor 1."""
        head = zeta.log_iv(zeta.add(density.ONE, x), density.UNIT)
        return library_bracket(zeta.sub(head, log_g_iv(k, exponent(r))[0]))

    @pytest.mark.parametrize("k, m, r", POINTS)
    def test_t_at_and_t_sign(self, table, taken, k, m, r):
        assert density.t_sign(table, k, m, r) == -1
        assert len(taken) == m
        taken.clear()
        t = density.t_at(table, k, m, exponent(r))
        assert len(taken) == m
        assert t == self.without_prefix(k, r, taken[-1]) and t.hi < 0

    @pytest.mark.parametrize("k, m, r", POINTS)
    def test_density_report(self, table, taken, k, m, r):
        report = density.density_report(table, k, r)
        assert len(taken) == 4
        assert report.per_m == {level: self.without_prefix(k, r, taken[level - 1]) for level in density.LEVELS}
        assert report.verdict == "dense"

    @pytest.mark.parametrize("k, m, r", POINTS)
    def test_analytic_gap_scan(self, table, taken, k, m, r):
        assert explorer.analytic_gap_scan(table, k, r, 10) == ()
        assert len(taken) == 10

    @pytest.mark.parametrize("k, m, r", POINTS)
    def test_the_points_are_positive(self, table, k, m, r):
        assert density.t_sign(table, k, m, r) == 1
        assert density.t_func(table, k, m, r).strictly_positive()
        assert m in [level for level, _, _ in explorer.analytic_gap_scan(table, k, r, 10)]
        assert density.density_report(table, k, r).verdict == "not_dense"


class TestTupleRoute:
    """The T route on interval tuples, with p^-r from zeta(r)'s table,
    prints no bracket wider than the seed route's, and changes a verdict
    only from undetermined to the sign mpmath gives; the sign test, on
    the sign size's tables, gives the seed route's signs."""

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.one_of(st.integers(1, 12), st.integers(1, 10**6)),
        r=st.one_of(st.floats(1.0001, 3.0), st.floats(1.0001, 300.0)),
    )
    def test_printed_brackets_equal_the_oracle(self, table, k, r):
        assert_no_wider_than_the_seed_route(table, k, r)

    @pytest.mark.parametrize(
        "k, r", [(1, 60.0), (1, 100.0), (1, 195.0), (1, 200.0), (1, 300.0), (30, 1.9), (2, 40.0)]
    )
    def test_large_r_brackets_narrow(self, table, k, r):
        # the full size's unit of 2^-216, its direct sum and its integer
        # logs narrow T at large r; at r = 195 and r = 200 the seed route's
        # undetermined becomes not_dense, with T_1(1, 200) about 6.22e-61
        # (at r = 230 every T bracket still straddles 0)
        assert_no_wider_than_the_seed_route(table, k, r)
        if r in (195.0, 200.0):
            assert seed_density_verdict(table, k, r) == "undetermined"
            assert density.density_report(table, k, r).verdict == "not_dense"
        if r == 200.0:
            t = density.t_func(table, k, 1, r)
            assert 6.22e-61 < t.lo < t.hi < 6.227e-61

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.one_of(st.integers(1, 12), st.integers(1, 10**6)),
        m=st.integers(1, 30),
        r=st.floats(min_value=1.0001, max_value=40.0),
    )
    def test_sign_test_agrees_with_the_oracle_wherever_both_decide(self, table, k, m, r):
        sign = density.t_sign(table, k, m, r)
        oracle = t_sign_oracle(table, k, m, r, zeta.SIGN_SIZE)
        assert None in (sign, oracle) or sign == oracle


def assert_no_wider_than_the_seed_route(table, k, r):
    """Every printed bracket of t_levels, t_func, density_report and
    analytic_gap_scan equal to the seed route's or nested in it, and a
    verdict that differs from the seed route's only where that is
    undetermined and the new one is mpmath's sign of T at 60 digits."""
    oracle = list(t_levels_oracle(table, k, r, range(1, 11)))
    s = exponent(r)
    log_g = log_g_iv(k, s)
    assert_levels_no_wider(list(density.t_levels(table, k, s, log_g, range(1, 11))), oracle)
    for m in (1, 2, 4, 10):
        assert_no_wider(density.t_func(table, k, m, r), oracle[m - 1][1])
    report = density.density_report(table, k, r)
    for m in (1, 2, 4):
        assert_no_wider(report.per_m[m], oracle[m - 1][1])
    assert_no_wider(report.log_g, log_g_bracket_oracle(k, r))
    seed = seed_density_verdict(table, k, r)
    if report.verdict != seed:
        assert seed == "undetermined" and report.verdict == "not_dense"
        assert any(t_mpmath(table, k, m, r) > 0 for m in (1, 2, 4) if report.per_m[m].strictly_positive())
    # every gap of the seed route, at least as wide
    scan = {m: (lo, hi) for m, lo, hi in explorer.analytic_gap_scan(table, k, r, 10)}
    for m, _, gap_old in oracle:
        if gap_old is not None:
            assert scan[m][0] <= gap_old[0] and gap_old[1] <= scan[m][1]


class TestDerivative:
    def test_positive_bracket(self, table):
        assert t_derivative(table, 1, 1, 2).strictly_positive()
        assert t_derivative(table, 3, 2, 1.5).strictly_positive()

    def test_finite_difference(self, table):
        k, m, r, h = 1, 1, 1.9, 1e-5
        fd = (
            density.t_func(table, k, m, r + h).mid - density.t_func(table, k, m, r - h).mid
        ) / (2 * h)
        bracket = t_derivative(table, k, m, r)
        assert bracket.lo - 1e-6 <= fd <= bracket.hi + 1e-6

    def test_seven_term_lower_bound(self, table):
        k, m, r = 1, 1, 2.0
        bracket = t_derivative(table, k, m, r)
        lower = sum(
            math.log(table.nth(i)) / (table.nth(i) ** r + 1) for i in range(m + 1, m + 7)
        ) - math.log(table.nth(m)) / (table.nth(m) ** r + 1)
        assert bracket.lo >= lower

    def test_domain(self, table):
        with pytest.raises(DomainError):
            t_derivative(table, 1, 1, 2.5)


class TestJ:
    def test_negative_at_upper_end(self, table):
        for m in (1, 2, 4):
            assert j_bracket(table, m, 7 / 3).hi < 0

    def test_increasing_on_grid(self, table):
        for m in (1, 2, 4):
            xs = [1.01 + 0.02 * i for i in range(66)]
            js = [j_bracket(table, m, x) for x in xs]
            assert all(b.lo > a.hi for a, b in zip(js, js[1:]))


class TestV:
    def test_root_location(self, table):
        assert abs(v_func(table, 1, 1, 1.864633)) < 1e-5

    def test_negative_at_one(self, table):
        assert v_func(table, 1, 1, 1.0) < 0
        assert v_func(table, 1, 1, 7 / 3) > 0

    def test_needs_the_truncation_point_in_the_table(self):
        # p_99999 = 1299689 <= 1299700 < p_100000 = 1299709
        short = primes.sieve(1_299_700)
        with pytest.raises(DomainError):
            v_func(short, 1, 1, 1.5)
        with pytest.raises(DomainError):
            r1_surrogate(short)

    def test_v_above_t(self, table):
        for k, m, r in ((1, 1, 1.5), (2, 2, 1.9), (3, 4, 2.2)):
            assert v_func(table, k, m, r) > density.t_func(table, k, m, r).hi

    def test_truncation_gap_bounded(self, table):
        # V - T equals the dropped tail beyond the 10^5-th prime
        k, m, r = 1, 1, 1.5
        gap = v_func(table, k, m, r) - density.t_func(table, k, m, r).mid
        p_last = float(table.nth(V_TRUNCATION))
        assert 0 < gap < p_last ** (1 - r) / (r - 1)


class TestTFloat:
    @pytest.mark.parametrize("k", [1, 2, 5, 30])
    def test_within_the_solver_margin_of_t(self, table, k):
        # solver.GUIDE_ERROR assumes the float T is within 2e-15 of T on [1.0001, 2]
        for m in (1, 2, 4):
            for r in (1.0001, 1.2, 1.6, 1.86, 1.89, 2.0):
                t = density.t_func(table, k, m, r)
                assert t.lo - 2e-15 <= density.t_float(table, k, m, r) <= t.hi + 2e-15


class TestGapInterval:
    def test_fires_above_threshold(self, table):
        gap = gap_core(table, 1, 1, 1.95)
        assert gap is not None
        assert gap[1] > gap[0]

    def test_silent_below_threshold(self, table):
        assert gap_core(table, 1, 1, 1.5) is None

    def test_width_shrinks_toward_threshold(self, table):
        lo_far, hi_far = gap_core(table, 1, 1, 1.95)
        lo_near, hi_near = gap_core(table, 1, 1, 1.87)
        assert 0 < hi_near - lo_near < hi_far - lo_far


class TestInequalities:
    def test_all_pass_with_positive_slack(self):
        report = density.check_inequalities()
        assert report.all_passed
        for check in report.checks:
            assert check.min_slack > 0
            assert 1 <= check.cells < density.COVER_MAX_CELLS

    def test_spot_values(self):
        r = 1.8
        assert 1 + 2**-r < (1 + 3**-r) * (1 + 3**-r + 3 ** (-2 * r))
        r = 2.5
        assert (1 + 2**-r) ** 2 > library_bracket(zeta.zeta_iv(exponent(r))[0]).hi

    def test_slack_is_a_lower_bound_at_points_of_the_range(self):
        # the float forms of the five expressions, as the grid checked them
        forms = [
            lambda r: (1 + 3**-r) * (1 + 3**-r + 3 ** (-2 * r)) - (1 + 2**-r),
            lambda r: (1 + 3**-r) - (5**r / (5**r - 1)) * ((7**r + 1) / (7**r - 1)),
            lambda r: (1 + 2**-r) * (3**r / (3**r + 1)) - (1 + 3**-r),
            lambda r: (1 + 2**-r) * (3**r / (3**r + 1)) * (5**r / (5**r + 1)) * (7**r / (7**r + 1))
            - (1 + 7**-r),
            lambda r: (1 + 2**-r) ** 2 - float(mpmath.zeta(r)),
        ]
        for check, form in zip(density.check_inequalities().checks, forms):
            for r in np.linspace(check.r_lo, check.r_hi, 101):
                assert check.min_slack <= form(float(r)) + 1e-12, (check.name, r)


def above(c):
    """The claim r - c on a cell [a, b], as a pair at the cover's unit."""
    return lambda a, b: zeta.sub(to_units(iv.mpf([a, b])), to_units(iv.mpf(c)))


def below(c):
    """The claim c - r on a cell [a, b], as a pair at the cover's unit."""
    return lambda a, b: zeta.sub(to_units(iv.mpf(c)), to_units(iv.mpf([a, b])))


def recorded(claim, cells):
    """``claim``, appending each cell's ends and enclosure to ``cells``."""

    def wrapped(a, b):
        enclosure = claim(a, b)
        cells.append((a, b, enclosure))
        return enclosure

    return wrapped


class TestCover:
    def test_a_false_claim_fails_within_the_budget(self):
        cells, lowest, passed = density._cover(above(1.8), 1.67, 1.98)
        assert not passed
        assert lowest <= 0

    @pytest.mark.parametrize("claim", [above(1.67), below(1.98)], ids=["lo", "hi"])
    def test_a_claim_zero_at_an_endpoint_fails(self, claim):
        cells, lowest, passed = density._cover(claim, 1.67, 1.98)
        assert not passed
        assert lowest <= 0

    def test_the_budget_bounds_the_evaluations(self, monkeypatch):
        monkeypatch.setattr(density, "COVER_MAX_CELLS", 9)
        calls = []
        assert density._cover(recorded(above(1.8), calls), 1.0, 1.9)[2] is False
        assert len(calls) == 9

    def test_a_point_range(self):
        assert density._cover(above(1.5), 2.0, 2.0) == (1, math.nextafter(0.5, 0), True)

    def test_a_true_claim_is_covered(self):
        cells, lowest, passed = density._cover(above(1.0), 1.001, 2.0)
        assert passed and cells == 1 and 0 < lowest <= 0.001

    def test_every_cell_equals_the_iv_oracle(self, table, monkeypatch):
        # all 14 checks: the same cells, and so the same lower bounds,
        # min_slack and verdict, as the cover on iv objects with each end of
        # each power of each cell by zeta.prime_power at that end, its
        # enclosures rounded outward to the cover's unit; and each cell's
        # enclosure inside the oracle's
        cells = {}
        check = density._check

        def spy(name, description, lo, hi, claim):
            return check(name, description, lo, hi, recorded(claim, cells.setdefault(name, [])))

        monkeypatch.setattr(density, "_check", spy)
        checks = density.check_inequalities().checks + density.check_monotonicity(table).checks
        claims = cover_claims_oracle(table)
        assert [c.name for c in checks] == list(claims)
        for c in checks:
            oracle = claims[c.name]
            oracle_cells = []
            result = density._cover(
                recorded(lambda a, b: to_units(oracle(iv.mpf([a, b]))), oracle_cells), c.r_lo, c.r_hi
            )
            assert result == (c.cells, c.min_slack, c.passed)
            assert [cell[:2] for cell in cells[c.name]] == [cell[:2] for cell in oracle_cells]
            for (_, _, (lo, hi)), (_, _, (oracle_lo, oracle_hi)) in zip(cells[c.name], oracle_cells):
                assert oracle_lo <= lo and hi <= oracle_hi, c.name

    @pytest.mark.parametrize("suite", ["inequalities", "monotonicity"])
    def test_each_power_end_is_taken_once_per_call(self, table, monkeypatch, suite):
        # one power, and so one exp, per (p, j, cell end), serving both of
        # its rounding directions, in a table that ends with the call: a
        # second call takes the same powers again.  The suites took an exp
        # per rounding direction before, 252 and 204.
        calls = []
        power = density.prime_power

        def spy(p, expo, size):
            calls.append((p, expo))
            return power(p, expo, size)

        monkeypatch.setattr(density, "prime_power", spy)
        run = {
            "inequalities": density.check_inequalities,
            "monotonicity": partial(density.check_monotonicity, table),
        }[suite]
        run()
        first = list(calls)
        assert len(set(first)) == len(first) == {"inequalities": 135, "monotonicity": 102}[suite]
        calls.clear()
        run()
        assert calls == first


class TestMonotonicity:
    def test_all_claims_proved(self, table):
        report = density.check_monotonicity(table)
        assert report.all_passed
        assert len(report.checks) == 9
        for check in report.checks:
            assert check.min_slack > 0
            assert 1 <= check.cells < density.COVER_MAX_CELLS

    @pytest.mark.parametrize("k", [1, 3, 20])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_slope_bound_is_below_the_derivative(self, table, k, m):
        # the k = 1 bound on a cell lies below dT_k/dr at points of the cell
        edges = np.linspace(density.R_MONOTONE_LO, 2.3, 7)
        for a, b in zip(edges, edges[1:]):
            rise = density._rise(
                table, density._power_table(), m, 10, density._log_over, float(a), float(b)
            )
            bound = library_bracket(rise)
            for r in (a, 0.5 * (a + b), b):
                assert bound.lo <= t_derivative(table, k, m, float(r)).hi

    def test_j_derivative_bound_is_below_a_difference_quotient(self, table):
        h = 1e-6
        for m in (1, 2, 4):
            for a, b in ((1.01, 1.2), (1.5, 1.9), (2.0, 2.33)):
                rise = density._rise(table, density._power_table(), m, 6, density._log_sq_over, a, b)
                bound = library_bracket(rise)
                for x in (a, 0.5 * (a + b), b - h):
                    j0, j1 = (j_bracket(table, m, y).mid for y in (x, x + h))
                    assert bound.lo <= (j1 - j0) / h + 1e-6

    def test_t_falls_as_k_grows(self, table):
        # the premise of the eta ordering lemma in solver.EtaTable
        for k in range(1, 9):
            for r in (1.0002, 1.3, 1.7, 1.88, 1.99):
                assert density.t_func(table, k + 1, 2, r).hi < density.t_func(table, k, 2, r).lo


def t_oracle(table, k, m, r):
    """T_k(m, r) on iv objects; at k = inf, m = 2, the limit equation."""
    if k == math.inf:
        assert m == 2
        return limit_equation(r)
    ((_, t, _),) = t_levels_oracle(table, k, r, (m,))
    return t


# A point across each of SELECTOR_SIGNS' roots from its claim:
# eta_inf = 1.88779, R_2(1) = 1.93259, R_1(1) = 1.86463, R_1(2) = 1.86526,
# and T_1(4, .) turns positive between 2.3 and 3.
ACROSS = {(math.inf, 2): 1.88, (2, 1): 1.94, (1, 4): 3.0, (1, 1): 1.864, (1, 2): 1.866}


class TestSelectorSuite:
    def test_every_sign_is_certified(self, table):
        report = density.check_selector(table)
        assert report.all_passed
        assert [(c.r_lo, c.r_hi, c.cells) for c in report.checks] == [
            (r, r, 1) for _, _, r, _ in density.SELECTOR_SIGNS
        ]
        for check, (k, m, r, side) in zip(report.checks, density.SELECTOR_SIGNS):
            t = t_oracle(table, k, m, r)
            assert t.certified_sign() == side
            assert 0 < check.min_slack <= (t.lo if side > 0 else -t.hi)

    @pytest.mark.parametrize("k, m, r, side", density.SELECTOR_SIGNS, ids=str)
    def test_a_claim_across_its_root_fails(self, table, k, m, r, side):
        across = ACROSS[k, m]
        assert t_oracle(table, k, m, across).certified_sign() == -side
        check = density._check("across", "", across, across, density._signed_t(table, k, m, side))
        assert not check.passed
        assert check.min_slack < 0


class TestDensityReport:
    def test_dense_regime(self, table):
        report = density.density_report(table, 1, 1.5)
        assert report.verdict == "dense"
        assert report.log_g == log_g(1, 1.5)
        for m in (1, 2, 4):
            t_b = report.per_m[m]
            assert t_b.nonpositive()
            # the report's T is t_func's T, and agrees with f - log G
            assert t_b == density.t_func(table, 1, m, 1.5)
            assert t_b.lo <= f(table, 1, m, 1.5).mid - report.log_g.mid <= t_b.hi

    def test_not_dense_at_two(self, table):
        assert density.density_report(table, 1, 2.0).verdict == "not_dense"

    def test_not_dense_beyond_monotone_window(self, table):
        assert density.density_report(table, 5, 2.5).verdict == "not_dense"
        assert density.density_report(table, 2, 3.0).verdict == "not_dense"

    def test_not_dense_above_two_without_solving(self, table, monkeypatch):
        # on (2, 7/3] a certified positive T decides; no threshold is solved
        def no_eta(*args, **kwargs):
            raise AssertionError("density_report must not solve for eta")

        monkeypatch.setattr(solver, "eta", no_eta)
        for k in range(1, 11):
            for r in (2.0001, 2.17, 7 / 3):
                report = density.density_report(table, k, r)
                assert report.verdict == "not_dense", (k, r)
                assert report.per_m[1].strictly_positive()

    def test_domain(self, table):
        with pytest.raises(DomainError):
            density.density_report(table, 1, 0.9)
