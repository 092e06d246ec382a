import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv

from sigma_density import zeta as zmod
from sigma_density.brackets import Bracket, check_eps
from sigma_density.errors import DomainError, PrecisionError, check_r
from sigma_density.solver import ETA_TABLE_MAX_K
from sigma_density.zeta import FactorSketch

PI = math.pi

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
        total += zmod.iv_pow(iv.mpf(n), -s)
    N = iv.mpf(terms)
    total += zmod.iv_pow(N, 1 - s) / (s - 1)
    total -= zmod.iv_pow(N, -s) / 2
    rising = s  # s(s+1)...(s+2j-2), starting value for j = 1
    factorial = iv.mpf(2)  # (2j)!
    for j in range(1, corrections + 1):
        p, q = mpmath.bernfrac(2 * j)
        term = (iv.mpf(int(p)) / iv.mpf(int(q))) / factorial * rising * zmod.iv_pow(N, 1 - s - 2 * j)
        total += term
        rising = rising * (s + 2 * j - 1) * (s + 2 * j)
        factorial = factorial * (2 * j + 1) * (2 * j + 2)
    p, q = mpmath.bernfrac(2 * corrections + 2)
    rem = abs(
        (iv.mpf(int(p)) / iv.mpf(int(q))) / factorial * rising
        * zmod.iv_pow(N, 1 - s - 2 * corrections - 2)
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
        fast, slow = zmod.zeta_iv(iv.mpf(s)), zeta_iv_oracle(iv.mpf(s))
        assert_agrees_with_the_oracle(fast, slow)
        with mpmath.workprec(400):
            reference = mpmath.zeta(mpmath.mpf(s))
            for enclosure in (fast, slow):
                assert mpmath.mpf(enclosure.a) <= reference <= mpmath.mpf(enclosure.b)

    @pytest.mark.parametrize("cell", [[7 / 3, 2.5], [2.5, 3], [1.0001, 2]])
    def test_wide_cells_agree_with_the_oracle(self, cell):
        # the proof cells of density._cover are this wide, so its cell
        # counts and slacks read the same doubles as with the oracle
        assert_agrees_with_the_oracle(zmod.zeta_iv(iv.mpf(cell)), zeta_iv_oracle(iv.mpf(cell)))

    def test_one_exp_per_prime_up_to_the_term_count(self, monkeypatch):
        calls = []
        exp = zmod.mpi_exp

        def spy(x, prec):
            calls.append(prec)
            return exp(x, prec)

        monkeypatch.setattr(zmod, "mpi_exp", spy)
        # 2, 3, 5, 7, 11 and, at N = 25, also 13, 17, 19, 23
        for size, primes in ((zmod.FULL_SIZE, 9), (zmod.SIGN_SIZE, 5)):
            calls.clear()
            zmod.zeta_iv(iv.mpf(1.88), size)
            assert calls == [size.prec] * primes

    @pytest.mark.parametrize(
        "s",
        [1.0001, 1.5, 1.8646345674817102, 1.88, 2.0, 3.7, 4.0, 20.0, 63.9, 64.5, 202.0, 1e3, 1e6]
        + [[7 / 3, 2.5], [2.5, 3], [1.0001, 2]],
    )
    def test_full_size_is_the_iv_kernel_bit_for_bit(self, s):
        assert zmod.zeta_iv(iv.mpf(s))._mpi_ == zeta_iv_reference(iv.mpf(s))._mpi_

    @pytest.mark.parametrize("size", [zmod.FULL_SIZE, zmod.SIGN_SIZE], ids=["full", "sign"])
    def test_both_sizes_enclose_zeta_up_to_the_table_reach(self, size):
        # eta_table reaches zeta((k + 1) r) at k = ETA_TABLE_MAX_K, r = 2
        top = (ETA_TABLE_MAX_K + 1) * 2.0
        points = [1.0001, 1.001, 1.5, 1.88, 2.0, 2.5, 7 / 3, 4.0, 22.0, top]
        points += list(np.geomspace(1.0001, top, 40))
        with mpmath.workprec(400):
            for s in points:
                enclosure = zmod.zeta_iv(iv.mpf(s), size)
                lo, hi = mpmath.mpf(enclosure.a), mpmath.mpf(enclosure.b)
                reference = mpmath.zeta(mpmath.mpf(s))
                assert lo <= reference <= hi, s
                # narrow enough to settle a sign test the guide leaves to it
                assert hi - lo <= 1e-15 * reference, s

    @pytest.mark.parametrize("s", [64.5, 100, 1e3, 1e6])
    def test_large_argument(self, s):
        start = time.perf_counter()
        b = zmod.zeta(s, 1e-13)
        assert time.perf_counter() - start < 1.0
        assert b.width <= 4 * math.ulp(1.0)
        with mpmath.workprec(400):
            reference = mpmath.zeta(mpmath.mpf(s))
            assert mpmath.mpf(b.lo) <= reference <= mpmath.mpf(b.hi)


class TestZeta:
    def test_closed_form_two(self):
        b = zmod.zeta(2, 1e-12)
        assert b.contains(PI**2 / 6)
        assert b.width <= 1e-12

    def test_closed_form_four(self):
        b = zmod.zeta(4, 1e-12)
        assert b.contains(PI**4 / 90)

    def test_near_limit_constant(self):
        # the value at which the limiting threshold equation balances
        r = 1.8877909
        b = zmod.zeta(r, 1e-10)
        lhs = (2**r / (2**r - 1)) * ((3**r + 1) / (3**r - 1))
        assert abs(lhs - b.mid) < 1e-6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            zmod.zeta(1.0, 1e-6)
        with pytest.raises(DomainError):
            zmod.zeta(0.5, 1e-6)

    def test_precision_floor(self):
        with pytest.raises(PrecisionError):
            zmod.zeta(2, 1e-30)

    @settings(max_examples=25, deadline=None)
    @given(r=st.floats(min_value=1.05, max_value=40))
    def test_bracket_soundness_against_high_precision(self, r):
        b = zmod.zeta(r, 1e-12)
        with mpmath.workdps(60):
            reference = mpmath.zeta(mpmath.mpf(r))
            assert mpmath.mpf(b.lo) <= reference <= mpmath.mpf(b.hi)

    def test_partial_sum_route_agrees(self):
        # dual-route check: the elementary baseline encloses the same value
        for r in (1.5, 2.0, 3.25):
            fast = zmod.zeta(r, 1e-12)
            slow = zeta_partial_sum(r, 1e-6)
            assert slow.lo <= fast.lo and fast.hi <= slow.hi

    def test_partial_sum_caps_near_one(self):
        with pytest.warns(UserWarning):
            b = zeta_partial_sum(1.001, 1e-6, max_terms=10_000)
        assert b.width > 1e-6  # widened, not wrong


class TestGk:
    def test_k1_r2_closed_form(self):
        b = zmod.g_k(1, 2, 1e-10)
        assert b.contains(15 / PI**2)

    def test_large_k_approaches_zeta(self):
        g = zmod.g_k(40, 2, 1e-12)
        z = zmod.zeta(2, 1e-12)
        assert abs(g.mid - z.mid) < 1e-10

    def test_finite_near_one(self):
        b = zmod.g_k(1, 1.01, 1e-8)
        assert math.isfinite(b.lo) and math.isfinite(b.hi)

    def test_between_one_and_zeta(self):
        for k, r in ((1, 1.5), (3, 2.0), (7, 1.2)):
            g = zmod.g_k(k, r, 1e-10)
            z = zmod.zeta(r, 1e-10)
            assert 1 < g.lo and g.hi < z.hi


class TestLocalFactor:
    def test_examples(self):
        assert zmod.local_factor(2, 1, 2) == pytest.approx(1.25, abs=1e-15)
        assert zmod.local_factor(2, 3, 2) == pytest.approx(1 + 1 / 4 + 1 / 16 + 1 / 64, abs=1e-15)

    def test_r_one_rejected(self):
        with pytest.raises(DomainError):
            zmod.local_factor(3, 2, 1)

    def test_bounds(self):
        for p, k, r in ((2, 1, 1.5), (3, 4, 2.0), (13, 2, 1.1)):
            v = zmod.local_factor(p, k, r)
            assert 1 < v < p**r / (p**r - 1)


class TestSigmaRestricted:
    def test_empty_sketch_is_one(self, table):
        sketch = FactorSketch(k=1)
        assert zmod.sigma_restricted(sketch, 2, table) == 1.0
        assert zmod.log_sigma_restricted(sketch, 2, table) == 0.0

    def test_single_prime(self, table):
        sketch = FactorSketch(k=1, entries=((1, 1),))  # n = 2
        assert zmod.sigma_restricted(sketch, 2, table) == pytest.approx(1.25, abs=1e-15)

    def test_two_primes(self, table):
        sketch = FactorSketch(k=1, entries=((1, 1), (2, 1)))  # n = 6
        assert zmod.sigma_restricted(sketch, 2, table) == pytest.approx(
            1.25 * (1 + 1 / 9), abs=1e-14
        )

    def test_invariant_violations(self):
        with pytest.raises(DomainError):
            FactorSketch(k=1, entries=((1, 2),))  # exponent above k
        with pytest.raises(DomainError):
            FactorSketch(k=2, entries=((3, 1), (2, 1)))  # indices not increasing

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(1, 4),
        r=st.floats(min_value=1.1, max_value=4),
        data=st.data(),
    )
    def test_multiplicativity_and_range(self, table, k, r, data):
        indices = data.draw(
            st.lists(st.integers(1, 50), min_size=0, max_size=6, unique=True)
        )
        entries = tuple(
            (i, data.draw(st.integers(1, k))) for i in sorted(indices)
        )
        sketch = FactorSketch(k=k, entries=entries)
        value = zmod.sigma_restricted(sketch, r, table)
        product = 1.0
        for entry in entries:
            product *= zmod.sigma_restricted(FactorSketch(k=k, entries=(entry,)), r, table)
        assert value == pytest.approx(product, rel=1e-12)
        assert 1 <= value < zmod.g_k(k, r, 1e-10).hi

    def test_euler_product_partial_sums_approach_log_g(self, table):
        k, r = 2, 1.5
        p = table.slice(1, 100_000).astype(float)
        x = p ** (-r)
        partial = float(np.sum(np.log((1 - x ** (k + 1)) / (1 - x))))
        target = math.log(zmod.g_k(k, r, 1e-10).mid)
        # analytic bound on the dropped tail: sum_{i>N} log local < sum_{n>p_N} n^-r
        p_last = float(table.nth(100_000))
        tail_bound = p_last ** (1 - r) / (r - 1)
        assert 0 < target - partial < tail_bound
