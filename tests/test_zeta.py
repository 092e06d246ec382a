import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv
from mpmath.libmp import from_float, mpf_exp, mpf_mul, mpi_neg, round_ceiling

from oracles import contains, enclosure_width, encloses, iv_pow, mpf_fraction, taylor_exp, zeta_mpi
from sigma_density import density, explorer, solver, zeta as zmod
from sigma_density.brackets import Bracket, check_eps
from sigma_density.errors import DomainError, PrecisionError, check_r
from sigma_density.solver import ETA_TABLE_MAX_K

PI = math.pi


def kernel(s, size=zmod.FULL_SIZE):
    """The kernel's enclosure of zeta(s) for a double or a cell [a, b], as
    an iv object."""
    return iv.make_mpf(zmod.zeta_iv(iv.mpf(s)._mpi_, size)[0])


def prime_entries(powers, size):
    """A table's entries at n = 1 and at the primes n <= N, the ones the
    kernel keeps."""
    return [powers[n] for n in range(1, size.terms + 1) if size.smallest_factor[n] == n]


def assert_within_the_mpi_kernel(cell, size):
    """zeta_iv over the iv cell, and each prime entry of its table, against
    mpmath at 300 bits and against ``zeta_mpi``, the kernel on ``mpi_*``
    calls: each enclosure holds the image of the cell (zeta(s) over
    [s.a, s.b] is [zeta(s.b), zeta(s.a)]), is no wider than the mpi
    kernel's, and prints as doubles inside the mpi kernel's."""
    value, powers = zmod.zeta_iv(cell._mpi_, size)
    oracle, oracle_powers = zeta_mpi(cell, size)
    with mpmath.workprec(300):
        sa, sb = mpmath.mpf(cell.a), mpmath.mpf(cell.b)
        assert encloses(value, mpmath.zeta(sb), mpmath.zeta(sa))
        for n, (x, y) in enumerate(zip(powers, oracle_powers)):
            if x is not None and n > 1:
                assert encloses(x, mpmath.power(n, -sb), mpmath.power(n, -sa)), n
                assert enclosure_width(x) <= enclosure_width(y), n
    assert enclosure_width(value) <= enclosure_width(oracle._mpi_)
    printed, oracle_printed = Bracket.from_iv(value), Bracket.from_iv(oracle)
    assert oracle_printed.lo <= printed.lo and printed.hi <= oracle_printed.hi


def zeta_bracket(r: float) -> Bracket:
    """zeta(r) as the program prints it: the full-size kernel's enclosure."""
    return Bracket.from_iv(zmod.zeta_iv(zmod.to_iv(r))[0])


def log_g_bracket(k: int, r: float) -> Bracket:
    return Bracket.from_iv(zmod.log_g_iv(k, zmod.to_iv(r))[0])


# Partial-sum term cap for the oracle route near r = 1.
PARTIAL_SUM_MAX_TERMS = 2_000_000


def zeta_partial_sum(r: float, eps: float = 1e-6, max_terms: int = PARTIAL_SUM_MAX_TERMS) -> Bracket:
    """Oracle zeta enclosure: partial sum plus integral tail enclosure.

    The tail sum_{n>N} n^-r lies in [(N+1)^{1-r}/(r-1), N^{1-r}/(r-1)].
    N is chosen so the tail enclosure is narrower than eps/2; if that
    requires more than ``max_terms`` terms (r near 1), the term count is
    capped and the bracket widens with a warning rather than hanging.
    """
    check_r(r)
    check_eps(eps)
    # Tail-enclosure width < N^{1-r}/(r-1) - (N+1)^{1-r}/(r-1) < N^{-r};
    # a sufficient N solves N^{-r} = eps/2.
    n_needed = int((2.0 / eps) ** (1.0 / r)) + 1
    if n_needed > max_terms:
        warnings.warn(
            f"partial-sum zeta capped at {max_terms} terms for r={r}; "
            "returned bracket is wider than requested",
            stacklevel=2,
        )
        n_needed = max_terms
    n = np.arange(1, n_needed + 1, dtype=np.float64)
    partial = float(np.sum(n ** (-r)))
    # Pairwise-summation rounding: ~(log2 N + 4) ulps relative to the sum.
    rounding = (math.log2(n_needed) + 4) * 2.3e-16 * partial
    tail_lo = (n_needed + 1) ** (1.0 - r) / (r - 1.0)
    tail_hi = n_needed ** (1.0 - r) / (r - 1.0)
    return Bracket(
        math.nextafter(partial - rounding + tail_lo * (1 - 1e-14), -math.inf),
        math.nextafter(partial + rounding + tail_hi * (1 + 1e-14), math.inf),
    )


def zeta_iv_oracle(s):
    """The Euler-Maclaurin kernel with an s-dependent term count and the
    Bernoulli fractions and logs rebuilt on every call.

    This was the library's kernel before its constants were hoisted, with
    one change: the remainder bound is kept at working precision, where
    the old kernel rounded it to the nearest double.
    """
    s_hi = float(mpmath.mpf(s.b))
    terms = max(25, int(s_hi / 4) + 10)
    corrections = 12
    total = iv.mpf(0)
    for n in range(1, terms + 1):
        total += iv_pow(iv.mpf(n), -s)
    N = iv.mpf(terms)
    total += iv_pow(N, 1 - s) / (s - 1)
    total -= iv_pow(N, -s) / 2
    rising = s  # s(s+1)...(s+2j-2), starting value for j = 1
    factorial = iv.mpf(2)  # (2j)!
    for j in range(1, corrections + 1):
        p, q = mpmath.bernfrac(2 * j)
        term = (iv.mpf(int(p)) / iv.mpf(int(q))) / factorial * rising * iv_pow(N, 1 - s - 2 * j)
        total += term
        rising = rising * (s + 2 * j - 1) * (s + 2 * j)
        factorial = factorial * (2 * j + 1) * (2 * j + 2)
    p, q = mpmath.bernfrac(2 * corrections + 2)
    rem = abs(
        (iv.mpf(int(p)) / iv.mpf(int(q))) / factorial * rising
        * iv_pow(N, 1 - s - 2 * corrections - 2)
    )
    return total + iv.mpf([-rem.b, rem.b])


# The kernel as it ran on mpmath.iv objects at iv.prec = 200, before it
# moved to libmp interval tuples: N = 25 terms and M = 12 corrections,
# the terms of zmod.FULL_SIZE, whose enclosure must be no wider and
# print the same doubles.
REF_TERMS, REF_CORRECTIONS = 25, 12
REF_SMALLEST_FACTOR = [0, 1] + [
    next(p for p in range(2, n + 1) if n % p == 0) for n in range(2, REF_TERMS + 1)
]
REF_LOG_P = {p: iv.log(iv.mpf(p)) for p in range(2, REF_TERMS + 1) if REF_SMALLEST_FACTOR[p] == p}
REF_COEFFS = [
    iv.mpf(int(mpmath.bernfrac(2 * j)[0]))
    / iv.mpf(int(mpmath.bernfrac(2 * j)[1] * math.factorial(2 * j) * REF_TERMS ** (2 * j - 1)))
    for j in range(1, REF_CORRECTIONS + 2)
]


def zeta_iv_reference(s):
    assert iv.prec == 200
    powers = [None, iv.mpf(1)]  # powers[n] = n^-s
    total = iv.mpf(1)
    for n in range(2, REF_TERMS + 1):
        p = REF_SMALLEST_FACTOR[n]
        powers.append(iv.exp(-s * REF_LOG_P[p]) if p == n else powers[p] * powers[n // p])
        total += powers[n]
    N_s = powers[REF_TERMS]
    total += iv.mpf(REF_TERMS) * N_s / (s - 1)
    total -= N_s / 2
    rising = s  # s(s+1)...(s+2j-2), starting value for j = 1
    for j, coeff in enumerate(REF_COEFFS, start=1):
        term = coeff * rising * N_s
        if j > REF_CORRECTIONS:  # R_M lies between 0 and this omitted term
            return total + term * iv.mpf([-1, 1])
        total += term
        rising = rising * (s + iv.mpf(2 * j - 1)) * (s + iv.mpf(2 * j))


def assert_agrees_with_the_oracle(fast, slow):
    """Equal as double brackets, and equal to within 2^-190 relative at
    the working precision."""
    assert Bracket.from_iv(fast) == Bracket.from_iv(slow)
    for x, y in ((fast.a, slow.a), (fast.b, slow.b)):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        assert abs(x - y) <= abs(y) * mpmath.ldexp(1, -190)


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(s=st.floats(min_value=1, max_value=64, exclude_min=True, exclude_max=True))
    def test_endpoints_equal_the_oracle(self, s):
        # below s = 64 the oracle also sums 25 terms; its exps round
        # differently from the kernel's products in the last bits at the
        # working precision, but never in the doubles any output reads
        fast, slow = kernel(s), zeta_iv_oracle(iv.mpf(s))
        assert_agrees_with_the_oracle(fast, slow)
        with mpmath.workprec(400):
            reference = mpmath.zeta(mpmath.mpf(s))
            for enclosure in (fast, slow):
                assert mpmath.mpf(enclosure.a) <= reference <= mpmath.mpf(enclosure.b)

    @pytest.mark.parametrize("cell", [[7 / 3, 2.5], [2.5, 3], [1.0001, 2]])
    def test_wide_cells_agree_with_the_oracle(self, cell):
        # the proof cells of density._cover are this wide, so its cell
        # counts and slacks read the same doubles as with the oracle
        assert_agrees_with_the_oracle(kernel(cell), zeta_iv_oracle(iv.mpf(cell)))

    def test_one_exp_per_prime_up_to_the_term_count(self, monkeypatch):
        # one exp per prime at a point s, padded for both ends by exp_out;
        # a cell takes one at each end
        calls = []
        exp = zmod.mpf_exp

        def spy(x, prec, rounding):
            calls.append(prec)
            return exp(x, prec, rounding)

        monkeypatch.setattr(zmod, "mpf_exp", spy)
        # 2, 3, 5, 7, 11 and, at N = 25, also 13, 17, 19, 23
        for size, primes in ((zmod.FULL_SIZE, 9), (zmod.SIGN_SIZE, 5)):
            for s, ends in ((1.88, 1), ([1.8, 1.9], 2)):
                calls.clear()
                kernel(s, size)
                assert calls == [size.prec + zmod.GUARD_BITS] * (ends * primes)

    @settings(max_examples=60, deadline=None)
    @given(
        s=st.floats(min_value=1.0001, max_value=300.0),
        width=st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=2.0)),
        size=st.sampled_from([zmod.FULL_SIZE, zmod.SIGN_SIZE]),
    )
    def test_bits_and_table_equal_the_mpi_kernel(self, s, width, size):
        # at points and on the cells the cover passes, at both sizes: the
        # enclosure and each table entry hold mpmath's value, no wider than
        # the mpi kernel's, and print inside its doubles
        assert_within_the_mpi_kernel(iv.mpf([s, s + width]), size)

    @pytest.mark.parametrize("k", [1, 3, 10**6, 10**9])
    def test_bits_equal_the_mpi_kernel_at_a_rounded_argument(self, k):
        # (k + 1) r formed at 200 bits has more bits than the sign size
        s = (k + 1) * iv.mpf(1.8876543)
        for size in (zmod.FULL_SIZE, zmod.SIGN_SIZE):
            assert_within_the_mpi_kernel(s, size)

    @pytest.mark.parametrize("size", [zmod.FULL_SIZE, zmod.SIGN_SIZE], ids=["full", "sign"])
    @pytest.mark.parametrize("s", [1e4, 1e6, 1e308, [1.0001, 3.0]])
    def test_bits_and_table_equal_the_mpi_kernel_far_out(self, s, size):
        # the direct sum from s = 46.4 (full) or 26.5 (sign) on; at s = 1e308
        # each -s log p is about 2^790 wide, and takes two exps
        assert_within_the_mpi_kernel(iv.mpf(s), size)

    @pytest.mark.parametrize("size", [zmod.FULL_SIZE, zmod.SIGN_SIZE], ids=["full", "sign"])
    def test_encloses_zeta_no_wider_than_the_mpi_kernel(self, size):
        # a grid of points and cells around the direct-sum threshold, where
        # N^(1-s)/(s-1) falls below one unit: s near 1 + F/log2 N
        points = [1.0001, *np.arange(24.0, 64.5, 0.5).tolist(), 1e6, 1e308]
        cells = [[1.0001, 1.0002], [24.0, 25.0], [27.0, 29.0], [46.0, 49.0], [47.5, 47.75], [63.0, 64.0]]
        for s in points + cells:
            assert_within_the_mpi_kernel(iv.mpf(s), size)

    @settings(max_examples=40, deadline=None)
    @given(r=st.floats(min_value=1.0001, max_value=300.0))
    def test_table_entries_are_the_prime_powers(self, r):
        # the T route reads p^-r for p <= N from this table: the same
        # intervals as prime_power, holding mpmath's p^-r, no wider than an
        # interval exp at each end of -r log p
        size = zmod.FULL_SIZE
        r_iv = zmod.to_iv(r)
        minus_r = mpi_neg(r_iv, size.prec)
        _, powers = zmod.zeta_iv(r_iv)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            assert powers[p] == zmod.prime_power(p, minus_r, size.prec)
            with mpmath.workprec(300):
                x = mpmath.power(p, -mpmath.mpf(r))
            assert encloses(powers[p], x, x)
            assert enclosure_width(powers[p]) <= enclosure_width(iv_pow(iv.mpf(p), -iv.mpf(r))._mpi_)

    @pytest.mark.parametrize("size", [zmod.FULL_SIZE, zmod.SIGN_SIZE], ids=["full", "sign"])
    def test_table_holds_only_the_prime_entries(self, size):
        # no caller reads a composite n^-s, so the kernel leaves those
        # slots None; the table still reaches N, as density._power reads
        _, powers = zmod.zeta_iv(zmod.to_iv(1.88), size)
        assert len(powers) == size.terms + 1
        composites = [n for n in range(2, size.terms + 1) if size.smallest_factor[n] != n]
        assert composites and all(powers[n] is None for n in composites)
        assert None not in prime_entries(powers, size)

    @pytest.mark.parametrize(
        "s",
        [1.0001, 1.5, 1.8646345674817102, 1.88, 2.0, 3.7, 4.0, 20.0, 63.9, 64.5, 202.0, 1e3, 1e6]
        + [[7 / 3, 2.5], [2.5, 3], [1.0001, 2]],
    )
    def test_full_size_is_the_iv_kernel_bit_for_bit(self, s):
        # the printed doubles are the iv kernel's, bit for bit, from an
        # enclosure no wider than its one
        fast, slow = kernel(s), zeta_iv_reference(iv.mpf(s))
        assert Bracket.from_iv(fast) == Bracket.from_iv(slow)
        assert enclosure_width(fast._mpi_) <= enclosure_width(slow._mpi_)

    @pytest.mark.parametrize("size", [zmod.FULL_SIZE, zmod.SIGN_SIZE], ids=["full", "sign"])
    def test_both_sizes_enclose_zeta_up_to_the_table_reach(self, size):
        # eta_table reaches zeta((k + 1) r) at k = ETA_TABLE_MAX_K, r = 2
        top = (ETA_TABLE_MAX_K + 1) * 2.0
        points = [1.0001, 1.001, 1.5, 1.88, 2.0, 2.5, 7 / 3, 4.0, 22.0, top]
        points += list(np.geomspace(1.0001, top, 40))
        with mpmath.workprec(400):
            for s in points:
                enclosure = kernel(s, size)
                lo, hi = mpmath.mpf(enclosure.a), mpmath.mpf(enclosure.b)
                reference = mpmath.zeta(mpmath.mpf(s))
                assert lo <= reference <= hi, s
                # narrow enough to settle a sign test the guide leaves to it
                assert hi - lo <= 1e-15 * reference, s

    @pytest.mark.parametrize("s", [64.5, 100, 1e3, 1e6, 1e308])
    def test_large_argument(self, s):
        start = time.perf_counter()
        b = zeta_bracket(s)
        assert time.perf_counter() - start < 1.0
        assert b.width <= 4 * math.ulp(1.0)
        with mpmath.workprec(400):
            reference = mpmath.zeta(mpmath.mpf(s))
            assert mpmath.mpf(b.lo) <= reference <= mpmath.mpf(b.hi)


class TestExpOut:
    """zeta.exp_out's padded ends against oracles.taylor_exp, an enclosure
    of exp from Python integers alone: mpf_exp is trusted to within one
    ulp at its working precision, and the pad must cover that."""

    def test_padded_ends_hold_the_taylor_enclosure(self, table, monkeypatch):
        # every exp that the density verdicts and the census of the golden
        # files, a root and the verify suites take, with (k + 1) r at a
        # rounded argument
        calls = {}
        exp_out = zmod.exp_out

        def spy(t, prec):
            calls[t, prec] = exp_out(t, prec)
            return calls[t, prec]

        monkeypatch.setattr(zmod, "exp_out", spy)
        monkeypatch.setattr(explorer, "exp_out", spy)
        for k, r in ((1, 1.5), (5, 1.87), (2, 40.0), (30, 1.9), (1, 195.0), (1000, 1.8876543)):
            density.density_report(table, k, r)
        assert explorer.range_census(table, 1, 2.0, 1000).analytic_gaps
        for size in (zmod.FULL_SIZE, zmod.SIGN_SIZE):
            for s in (1.0001, 1.88, [1.0001, 2.0], [7 / 3, 2.5]):
                kernel(s, size)
        solver.eta(table, 3)
        density.check_inequalities()
        density.check_monotonicity(table)
        density.check_selector(table)
        assert len(calls) > 300
        for ((a, b), prec), (lo, hi) in calls.items():
            assert mpf_fraction(lo) <= taylor_exp(a)[0], (a, prec)
            assert taylor_exp(b)[1] <= mpf_fraction(hi), (b, prec)

    def test_the_pad_covers_an_exp_rounded_to_the_wrong_side(self):
        # In the cover at p = 19 and the cell end r = 2.291669791666667,
        # mpf_exp(x, 200, round_ceiling) returns 6.5e-62 below exp(x); the
        # padded power holds it.
        r = 2.291669791666667
        x = mpf_mul(from_float(r), zmod.log_prime(19, 200)[1], 200, round_ceiling)
        assert mpf_fraction(mpf_exp(x, 200, round_ceiling)) < taylor_exp(x)[0]
        lo, hi = zmod.prime_power(19, zmod.to_iv(r), 200)
        with mpmath.workprec(3000):
            power = mpmath.power(19, mpmath.mpf(r))
            assert mpmath.mpf(lo) < power < mpmath.mpf(hi)

    def test_one_exp_at_a_narrow_interval_two_at_a_wide_one(self, monkeypatch):
        calls = []
        exp = zmod.mpf_exp
        monkeypatch.setattr(zmod, "mpf_exp", lambda x, prec, rnd: calls.append(x) or exp(x, prec, rnd))
        narrow = zmod.log_prime(3, 300)  # about 2^-299 wide
        for t, exps in ((narrow, 1), ((narrow[0], narrow[0]), 1), (zmod.to_iv(1.0)[:1] + narrow[1:], 2)):
            calls.clear()
            lo, hi = zmod.exp_out(t, 200)
            assert len(calls) == exps
            assert mpf_fraction(lo) <= taylor_exp(t[0])[0] and taylor_exp(t[1])[1] <= mpf_fraction(hi)


class TestZeta:
    def test_closed_form_two(self):
        b = zeta_bracket(2)
        assert contains(b, PI**2 / 6)
        assert b.width <= 1e-12

    def test_closed_form_four(self):
        b = zeta_bracket(4)
        assert contains(b, PI**4 / 90)

    def test_near_limit_constant(self):
        # the value at which the limiting threshold equation balances
        r = 1.8877909
        b = zeta_bracket(r)
        lhs = (2**r / (2**r - 1)) * ((3**r + 1) / (3**r - 1))
        assert abs(lhs - b.mid) < 1e-6

    def test_domain_errors(self):
        # every entry point checks r with check_r before it reaches zeta
        with pytest.raises(DomainError):
            check_r(1.0)
        with pytest.raises(DomainError):
            check_r(0.5)

    def test_precision_floor(self):
        # and every requested tolerance with check_eps
        with pytest.raises(PrecisionError):
            check_eps(1e-30)

    @settings(max_examples=25, deadline=None)
    @given(r=st.floats(min_value=1.05, max_value=40))
    def test_bracket_soundness_against_high_precision(self, r):
        b = zeta_bracket(r)
        with mpmath.workdps(60):
            reference = mpmath.zeta(mpmath.mpf(r))
            assert mpmath.mpf(b.lo) <= reference <= mpmath.mpf(b.hi)

    def test_partial_sum_route_agrees(self):
        # dual-route check: the elementary baseline encloses the same value
        for r in (1.5, 2.0, 3.25):
            fast = zeta_bracket(r)
            slow = zeta_partial_sum(r, 1e-6)
            assert slow.lo <= fast.lo and fast.hi <= slow.hi

    def test_partial_sum_caps_near_one(self):
        with pytest.warns(UserWarning):
            b = zeta_partial_sum(1.001, 1e-6, max_terms=10_000)
        assert b.width > 1e-6  # widened, not wrong


class TestGk:
    def test_k1_r2_closed_form(self):
        b = log_g_bracket(1, 2)
        with mpmath.workdps(40):
            assert b.lo <= mpmath.log(15 / mpmath.pi**2) <= b.hi

    def test_large_k_approaches_zeta(self):
        log_g = log_g_bracket(40, 2)
        log_z = Bracket.from_iv(iv.log(kernel(2)))
        assert abs(log_g.mid - log_z.mid) < 1e-10

    def test_finite_near_one(self):
        b = log_g_bracket(1, 1.01)
        assert math.isfinite(b.lo) and math.isfinite(b.hi)

    def test_between_one_and_zeta(self):
        for k, r in ((1, 1.5), (3, 2.0), (7, 1.2)):
            log_g = log_g_bracket(k, r)
            log_z = Bracket.from_iv(iv.log(kernel(r)))
            assert 0 < log_g.lo and log_g.hi < log_z.hi


class TestLocalFactor:
    """The census's local factor 1 + p^-r + ... + p^-er."""

    def test_examples(self):
        assert explorer._local_factor(2, 1, 2) == pytest.approx(1.25, abs=1e-15)
        assert explorer._local_factor(2, 3, 2) == pytest.approx(1 + 1 / 4 + 1 / 16 + 1 / 64, abs=1e-15)

    def test_r_one_rejected(self, table):
        # the commands that take local factors check r first
        with pytest.raises(DomainError):
            explorer.range_census(table, 2, 1.0, 10)
        with pytest.raises(DomainError):
            explorer.greedy_approximate(table, 2, 1.0, 0.1, 10)

    def test_bounds(self):
        for p, k, r in ((2, 1, 1.5), (3, 4, 2.0), (13, 2, 1.1)):
            v = explorer._local_factor(p, k, r)
            assert 1 < v < p**r / (p**r - 1)


# Census bound of the multiplicativity test: every n it builds is at most
# this, from primes up to 19.
SIGMA_BOUND = 10_000


class TestSigmaRestricted:
    """sigma_{-r}(n) over the (k+1)-free n, as the census enumerates it."""

    def test_empty_sketch_is_one(self):
        # n = 1 has no prime factor
        assert explorer._sigma_values(1, 2.0, 1).tolist() == [1.0]

    def test_single_prime(self):
        # n = 2
        assert explorer._sigma_values(1, 2.0, 2)[1] == pytest.approx(1.25, abs=1e-15)

    def test_two_primes(self):
        # n = 6
        values = explorer._sigma_values(1, 2.0, 6)
        assert np.abs(values - 1.25 * (1 + 1 / 9)).min() <= 1e-14

    def test_invariant_violations(self):
        # an exponent above k leaves n out: 4 = 2^2 at k = 1, 8 = 2^3 at k = 2
        assert explorer._sigma_values(1, 2.0, 4).tolist() == pytest.approx([1.0, 1 + 1 / 9, 1.25], abs=1e-15)
        assert len(explorer._sigma_values(2, 2.0, 8)) == len(explorer._sigma_values(2, 2.0, 7)) == 7

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(1, 4),
        r=st.floats(min_value=1.1, max_value=4),
        data=st.data(),
    )
    def test_multiplicativity_and_range(self, table, k, r, data):
        indices = data.draw(st.lists(st.integers(1, 8), min_size=0, max_size=4, unique=True))
        n, product = 1, 1.0
        for i in sorted(indices):
            p, e = table.nth(i), data.draw(st.integers(1, k))
            if n * p**e <= SIGMA_BOUND:
                n *= p**e
                product *= explorer._local_factor(p, e, r)
        values = explorer._sigma_values(k, r, SIGMA_BOUND)
        assert np.abs(values - product).min() <= 1e-12 * product
        assert values[0] == 1.0 and values[-1] < math.exp(log_g_bracket(k, r).lo)

    def test_euler_product_partial_sums_approach_log_g(self, table):
        # sigma at n = (p_1 ... p_N)^k is the Euler product cut after p_N
        k, r = 2, 1.5
        p = table.slice(1, 100_000).astype(float)
        x = p ** (-r)
        partial = float(np.sum(np.log((1 - x ** (k + 1)) / (1 - x))))
        target = log_g_bracket(k, r).mid
        # analytic bound on the dropped tail: sum_{i>N} log local < sum_{n>p_N} n^-r
        p_last = float(table.nth(100_000))
        tail_bound = p_last ** (1 - r) / (r - 1)
        assert 0 < target - partial < tail_bound
