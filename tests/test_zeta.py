import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv
from mpmath.libmp import mpi_neg

from oracles import contains, iv_pow, zeta_mpi
from sigma_density import explorer, zeta as zmod
from sigma_density.brackets import Bracket, check_eps
from sigma_density.errors import DomainError, PrecisionError, check_r
from sigma_density.solver import ETA_TABLE_MAX_K

PI = math.pi


def kernel(s, size=zmod.FULL_SIZE):
    """The kernel's enclosure of zeta(s) for a double or a cell [a, b], as
    an iv object."""
    return iv.make_mpf(zmod.zeta_iv(iv.mpf(s)._mpi_, size)[0])


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
# with the same operations in the same order as zmod.FULL_SIZE, which
# must therefore give the same intervals bit for bit.
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
        # one interval exp per prime, written out as its two endpoint exps
        calls = []
        exp = zmod.mpf_exp

        def spy(x, prec, rounding):
            calls.append(prec)
            return exp(x, prec, rounding)

        monkeypatch.setattr(zmod, "mpf_exp", spy)
        # 2, 3, 5, 7, 11 and, at N = 25, also 13, 17, 19, 23
        for size, primes in ((zmod.FULL_SIZE, 9), (zmod.SIGN_SIZE, 5)):
            calls.clear()
            kernel(1.88, size)
            assert calls == [size.prec] * (2 * primes)

    @settings(max_examples=60, deadline=None)
    @given(
        s=st.floats(min_value=1.0001, max_value=300.0),
        width=st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=2.0)),
        size=st.sampled_from([zmod.FULL_SIZE, zmod.SIGN_SIZE]),
    )
    def test_bits_and_table_equal_the_mpi_kernel(self, s, width, size):
        # the written-out roundings are the ones mpi_* picks, at both sizes,
        # at points and on the cells the cover passes
        cell = iv.mpf([s, s + width])
        value, powers = zmod.zeta_iv(cell._mpi_, size)
        oracle, oracle_powers = zeta_mpi(cell, size)
        assert value == oracle._mpi_
        assert powers == oracle_powers

    @pytest.mark.parametrize("k", [1, 3, 10**6, 10**9])
    def test_bits_equal_the_mpi_kernel_at_a_rounded_argument(self, k):
        # (k + 1) r formed at 200 bits has more bits than the sign size
        s = (k + 1) * iv.mpf(1.8876543)
        for size in (zmod.FULL_SIZE, zmod.SIGN_SIZE):
            value, powers = zmod.zeta_iv(s._mpi_, size)
            oracle, oracle_powers = zeta_mpi(s, size)
            assert (value, powers) == (oracle._mpi_, oracle_powers)

    @pytest.mark.parametrize("size", [zmod.FULL_SIZE, zmod.SIGN_SIZE], ids=["full", "sign"])
    @pytest.mark.parametrize("s", [1e4, 1e6, 1e308, [1.0001, 3.0]])
    def test_bits_and_table_equal_the_mpi_kernel_far_out(self, s, size):
        # n^-s lies more than prec + 4 bits below 1 from s = 1e4 on, so
        # the kernel's sums replace it by a sticky bit; at s = 1e308 they
        # lie about 1e308 bits apart
        cell = iv.mpf(s)
        value, powers = zmod.zeta_iv(cell._mpi_, size)
        oracle, oracle_powers = zeta_mpi(cell, size)
        assert (value, powers) == (oracle._mpi_, oracle_powers)

    @settings(max_examples=40, deadline=None)
    @given(r=st.floats(min_value=1.0001, max_value=300.0))
    def test_table_entries_are_the_prime_powers(self, r):
        # the T route reads p^-r for p <= N from this table
        size = zmod.FULL_SIZE
        r_iv = zmod.to_iv(r)
        minus_r = mpi_neg(r_iv, size.prec)
        _, powers = zmod.zeta_iv(r_iv)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            assert powers[p] == zmod.prime_power(p, minus_r, size.prec)
            assert powers[p] == iv_pow(iv.mpf(p), -iv.mpf(r))._mpi_

    @pytest.mark.parametrize(
        "s",
        [1.0001, 1.5, 1.8646345674817102, 1.88, 2.0, 3.7, 4.0, 20.0, 63.9, 64.5, 202.0, 1e3, 1e6]
        + [[7 / 3, 2.5], [2.5, 3], [1.0001, 2]],
    )
    def test_full_size_is_the_iv_kernel_bit_for_bit(self, s):
        assert kernel(s)._mpi_ == zeta_iv_reference(iv.mpf(s))._mpi_

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

    @pytest.mark.parametrize("s", [64.5, 100, 1e3, 1e6])
    def test_large_argument(self, s):
        start = time.perf_counter()
        b = zeta_bracket(s)
        assert time.perf_counter() - start < 1.0
        assert b.width <= 4 * math.ulp(1.0)
        with mpmath.workprec(400):
            reference = mpmath.zeta(mpmath.mpf(s))
            assert mpmath.mpf(b.lo) <= reference <= mpmath.mpf(b.hi)


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
