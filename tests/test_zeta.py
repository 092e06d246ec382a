import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv
from fractions import Fraction

from mpmath.libmp import from_man_exp

from oracles import (
    contains,
    enclosure_width,
    encloses,
    exponent_of,
    iv_bracket,
    iv_pow,
    library_bracket,
    mpi,
    taylor_exp,
    zeta_mpi,
)
from sigma_density import cli, density, explorer, solver, zeta as zmod
from sigma_density.brackets import Bracket, check_eps
from sigma_density.errors import DomainError, PrecisionError, check_r
from sigma_density.solver import ETA_TABLE_MAX_K
from test_golden import GOLDEN

PI = math.pi


def kernel(s, size=zmod.FULL_SIZE):
    """The kernel's enclosure of zeta(s) for a double or a cell [a, b], as
    an iv object."""
    return iv.make_mpf(mpi(zmod.zeta_iv(exponent_of(s), size)[0], size.unit))


def assert_within_the_mpi_kernel(cell, size):
    """zeta_iv over the iv cell, and each prime entry of its table, against
    mpmath at 300 bits and against ``zeta_mpi``, the kernel on ``mpi_*``
    calls: each enclosure holds the image of the cell (zeta(s) over
    [s.a, s.b] is [zeta(s.b), zeta(s.a)]), is no wider than the mpi
    kernel's (a table entry, rounded outward to the unit, by at most two
    units), and prints as doubles inside the mpi kernel's."""
    value, powers = zmod.zeta_iv(exponent_of(cell), size)
    value = mpi(value, size.unit)
    oracle, oracle_powers = zeta_mpi(cell, size)
    with mpmath.workprec(300):
        sa, sb = mpmath.mpf(cell.a), mpmath.mpf(cell.b)
        assert encloses(value, mpmath.zeta(sb), mpmath.zeta(sa))
        for n, (x, y) in enumerate(zip(powers, oracle_powers)):
            if n > 1:
                x = mpi(x, size.unit)
                assert encloses(x, mpmath.power(n, -sb), mpmath.power(n, -sa)), n
                assert enclosure_width(x) <= enclosure_width(y) + mpmath.ldexp(2, -size.unit), n
    assert enclosure_width(value) <= enclosure_width(oracle._mpi_)
    printed, oracle_printed = iv_bracket(value), iv_bracket(oracle)
    assert oracle_printed.lo <= printed.lo and printed.hi <= oracle_printed.hi


def zeta_bracket(r: float) -> Bracket:
    """zeta(r) as the program prints it: the full-size kernel's enclosure."""
    return library_bracket(zmod.zeta_iv(zmod.exponent(r))[0])


def log_g_bracket(k: int, r: float) -> Bracket:
    return library_bracket(zmod.log_g_iv(k, zmod.exponent(r))[0])


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
    assert iv_bracket(fast) == iv_bracket(slow)
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
        # one exp per prime at a point s, padded for both ends; a cell takes
        # one at each end
        calls = []
        exp_at = zmod._exp_at

        def spy(man, exp, width, plan):
            calls.append(plan)
            return exp_at(man, exp, width, plan)

        monkeypatch.setattr(zmod, "_exp_at", spy)
        # 2, 3, 5, 7, 11 and, at N = 25, also 13, 17, 19, 23
        for size, primes in ((zmod.FULL_SIZE, 9), (zmod.SIGN_SIZE, 5)):
            for s, ends in ((1.88, 1), ([1.8, 1.9], 2)):
                calls.clear()
                kernel(s, size)
                assert calls == [zmod._exp_plan(size.prec)] * (ends * primes)

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
        # pairs as prime_power, holding mpmath's p^-r, no wider than an
        # interval exp at each end of -r log p once rounded to the unit
        size = zmod.FULL_SIZE
        s = zmod.exponent(r)
        _, powers = zmod.zeta_iv(s)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            assert powers[p] == zmod.prime_power(p, (-s[1], -s[0]), size)
            power = mpi(powers[p])
            with mpmath.workprec(300):
                x = mpmath.power(p, -mpmath.mpf(r))
            assert encloses(power, x, x)
            oracle = enclosure_width(iv_pow(iv.mpf(p), -iv.mpf(r))._mpi_)
            assert enclosure_width(power) <= oracle + mpmath.ldexp(2, -size.unit)

    @pytest.mark.parametrize("size", [zmod.FULL_SIZE, zmod.SIGN_SIZE], ids=["full", "sign"])
    def test_table_holds_every_entry(self, size):
        # n^-s for every n <= N, a composite's the product of two earlier
        # entries, each a pair at the unit that holds mpmath's value
        _, powers = zmod.zeta_iv(zmod.exponent(1.88), size)
        assert len(powers) == size.terms + 1 and powers[:2] == [None, (1 << size.unit,) * 2]
        with mpmath.workprec(300):
            for n in range(2, size.terms + 1):
                x = mpmath.power(n, -mpmath.mpf(1.88))
                assert encloses(mpi(powers[n], size.unit), x, x), n

    @pytest.mark.parametrize(
        "s",
        [1.0001, 1.5, 1.8646345674817102, 1.88, 2.0, 3.7, 4.0, 20.0, 63.9, 64.5, 202.0, 1e3, 1e6]
        + [[7 / 3, 2.5], [2.5, 3], [1.0001, 2]],
    )
    def test_full_size_is_the_iv_kernel_bit_for_bit(self, s):
        # the printed doubles are the iv kernel's, bit for bit, from an
        # enclosure no wider than its one
        fast, slow = kernel(s), zeta_iv_reference(iv.mpf(s))
        assert iv_bracket(fast) == iv_bracket(slow)
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


def dyadic(man, exp):
    return Fraction(man) * Fraction(2) ** exp


def man_exp(x: float) -> tuple[int, int]:
    """The double x as (man, exp), x = man 2^exp with man odd or 0."""
    man, denominator = x.as_integer_ratio()
    return man, 1 - denominator.bit_length()


def assert_holds_the_taylor_enclosure(calls):
    """Each recorded exp over [lo 2^exp, hi 2^exp], (a, ea, b, eb), holds
    oracles.taylor_exp's enclosure of exp at each end."""
    for (lo, hi, exp, prec), (a, ea, b, eb) in calls.items():
        assert dyadic(a, ea) <= taylor_exp(from_man_exp(lo, exp))[0], (lo, exp, prec)
        assert taylor_exp(from_man_exp(hi, exp))[1] <= dyadic(b, eb), (hi, exp, prec)


def record_exps(monkeypatch):
    """A dict that records every call of zeta._exp_ends and its result."""
    calls = {}
    exp_ends = zmod._exp_ends

    def spy(lo, hi, exp, prec):
        calls[lo, hi, exp, prec] = result = exp_ends(lo, hi, exp, prec)
        return result

    monkeypatch.setattr(zmod, "_exp_ends", spy)
    return calls


class TestIntegerExp:
    """zeta's exp on Python integers against oracles.taylor_exp, an
    enclosure of exp computed apart from it, and ln 2 and log p against
    mpmath; the pad's bound against the exact Taylor tail."""

    def test_padded_ends_hold_the_taylor_enclosure(self, table, monkeypatch):
        # every exp that the density verdicts and the census of the golden
        # files, a root and the verify suites take, with (k + 1) r at a
        # rounded argument, and the kernel's cells at both sizes
        calls = record_exps(monkeypatch)
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
        assert_holds_the_taylor_enclosure(calls)

    def test_every_exp_of_the_golden_commands_holds_the_taylor_enclosure(self, monkeypatch, capsysbinary):
        # the sixteen golden-file commands, the verify suites among them
        calls = record_exps(monkeypatch)
        for argv in GOLDEN.values():
            assert cli.main(argv) == 0
        capsysbinary.readouterr()
        assert {prec for *_, prec in calls} == {53, zmod.SIGN_SIZE.prec, zmod.FULL_SIZE.prec}
        assert len(calls) > 1000
        assert_holds_the_taylor_enclosure(calls)

    @pytest.mark.parametrize("prec", [53, 80, 200])
    @pytest.mark.parametrize(
        "x",
        [0.0, 5e-324, -5e-324, 1e-30, -1e-30, 0.5, -0.5, math.log(2), -math.log(2), 2.0, -3.0, 100.0, -646.0, 2000.0]
        + [j * math.log(2) - d for j in (-3, 1, 7) for d in (1e-12, 0.0)],
    )
    def test_an_argument_holds_the_taylor_enclosure(self, x, prec):
        # at zero, at tiny arguments of either sign, and beside multiples
        # of ln 2, where the reduced argument is near 0 or near ln 2
        man, exp = man_exp(x)
        result = zmod._exp_ends(man, man, exp, prec)
        assert_holds_the_taylor_enclosure({(man, man, exp, prec): result})
        a, ea, b, eb = result
        assert ea == eb and (b - a) < a >> (prec + zmod.GUARD_BITS)

    @pytest.mark.parametrize("x", [-(2.0**100), 2.0**60, -1e308])
    def test_a_huge_argument_holds_mpmath_exp(self, x):
        # ln 2 to bits of n past the work precision; mpmath's exp at 300
        # bits is far inside the bracket
        man, exp = man_exp(x)
        a, ea, b, eb = zmod._exp_ends(man, man, exp, 200)
        with mpmath.workprec(300):
            value = mpmath.exp(mpmath.mpf(x))
            assert mpmath.mpf(from_man_exp(a, ea)) < value < mpmath.mpf(from_man_exp(b, eb))
            assert mpmath.mpf(from_man_exp(b - a, eb)) < value * mpmath.ldexp(1, -210)

    def test_one_exp_at_a_narrow_interval_two_at_a_wide_one(self, monkeypatch):
        calls = []
        exp_at = zmod._exp_at
        monkeypatch.setattr(zmod, "_exp_at", lambda *args: calls.append(args) or exp_at(*args))
        lo, hi = zmod.log_units(3, 316)  # about 2^-315 wide
        for (a, b), exps in (((lo, hi), 1), ((lo, lo), 1), ((1 << 316, hi), 2)):
            calls.clear()
            result = zmod._exp_ends(a, b, -316, 200)
            assert len(calls) == exps
            assert_holds_the_taylor_enclosure({(a, b, -316, 200): result})

    def test_holds_the_power_where_libmp_rounded_to_the_wrong_side(self):
        # In the cover at p = 19 and the cell end r = 2.291669791666667,
        # libmp's mpf_exp(x, 200, round_ceiling) returned 6.5e-62 below
        # exp(x) at the upper end x of r log 19.
        r = 2.291669791666667
        lo, hi = mpi(zmod.prime_power(19, zmod.exponent(r), zmod.FULL_SIZE))
        with mpmath.workprec(3000):
            power = mpmath.power(19, mpmath.mpf(r))
            assert mpmath.mpf(lo) < power < mpmath.mpf(hi)

    @pytest.mark.parametrize("prec", [53, 80, 200])
    def test_the_pad_covers_the_rounding_and_the_exact_taylor_tail(self, prec):
        # the pad of _exp_plan's docstring, with the exact remainder of the
        # series at the largest reduced argument v = ln 2 / 2^K in place of
        # its bound 2 t_{J+1}: the plan's pad is no smaller
        plan = zmod._exp_plan(prec)
        w, halvings, terms = plan.work, plan.halvings, plan.terms
        assert plan.coeffs == tuple((1 << w) // math.factorial(j) for j in range(terms, -1, -1))
        with mpmath.workprec(w + 100):
            v = mpmath.log(2) / 2**halvings
            tail = mpmath.exp(v) - sum(v**j / mpmath.factorial(j) for j in range(terms + 1))
            pad = 3 + int(mpmath.ceil(tail * 2**w))
        assert 0 < tail * 2**w <= zmod.TAYLOR_TAIL
        for i in range(halvings):
            top = (1 << w) + (1 << (w - halvings + i))
            pad = ((2 * top + pad) * pad >> w) + 2
        assert plan.pad >= pad
        # and the result is within 2^-(F + 3) of exp, relative
        assert plan.pad < 1 << (w - prec - zmod.GUARD_BITS - 3)

    @pytest.mark.parametrize("bits", [64, 216, 1000, 14000])
    def test_ln2_and_log_p_hold_mpmath_within_two_units(self, bits):
        with mpmath.workprec(bits + 100):
            for p, (lo, hi) in [(2, zmod._ln2(bits))] + [(p, zmod.log_units(p, bits)) for p in (2, 3, 23, 1999993)]:
                value = mpmath.log(p) * mpmath.mpf(2) ** bits
                assert lo < value < hi and hi - lo <= 2, p

    def test_the_log_of_an_integer_value_is_log_p(self):
        # the log of any value, at an integer p in units of 2^-unit, takes
        # the same atanh series as log p itself
        for p in (2, 3, 19, 1999993):
            for unit in (69, 96, 216):
                assert zmod.log_iv((p << unit, p << unit), unit) == zmod.log_units(p, unit)


def record_logs(monkeypatch):
    """Every call of zeta._log_at, as a dict from (man, exp, bits) to its
    result, and of zeta.log_iv, in zeta and in density, as a list of
    (x, unit, result).  log_units' cache is emptied first, so that each
    log p is recorded too."""
    at_calls, iv_calls = {}, []
    log_at, log_iv = zmod._log_at, zmod.log_iv

    def spy_at(man, exp, bits):
        at_calls[man, exp, bits] = result = log_at(man, exp, bits)
        return result

    def spy_iv(x, unit):
        result = log_iv(x, unit)
        iv_calls.append((x, unit, result))
        return result

    monkeypatch.setattr(zmod, "_log_at", spy_at)
    for module in (zmod, density):
        monkeypatch.setattr(module, "log_iv", spy_iv)
    zmod.log_units.cache_clear()
    return at_calls, iv_calls


def assert_holds_the_log(at_calls, iv_calls):
    """Each recorded log against mpmath's at 3000 bits: the ends of
    _log_at hold log(man 2^exp) and are at most 2 units apart, and those
    of log_iv hold the log of each end of its pair."""
    with mpmath.workprec(3000):
        for (man, exp, bits), (lo, hi) in at_calls.items():
            value = mpmath.log(mpmath.ldexp(man, exp)) * mpmath.ldexp(1, bits)
            assert lo <= value <= hi and hi - lo <= 2, (man, exp, bits)
        for (x_lo, x_hi), unit, (lo, hi) in iv_calls:
            scale = mpmath.ldexp(1, unit)
            assert lo <= mpmath.log(x_lo / scale) * scale, (x_lo, unit)
            assert mpmath.log(x_hi / scale) * scale <= hi, (x_hi, unit)


class TestIntegerLog:
    """Every log on a certified route is zeta._log_at's atanh series, with
    log_iv's upper end from concavity: each end a bound, against mpmath."""

    def test_every_log_of_the_golden_commands_holds_mpmath(self, monkeypatch, capsysbinary):
        # the sixteen golden-file commands, the verify suites among them
        at_calls, iv_calls = record_logs(monkeypatch)
        for argv in GOLDEN.values():
            assert cli.main(argv) == 0
        capsysbinary.readouterr()
        assert {unit for _, unit, _ in iv_calls} == {zmod.SIGN_SIZE.unit, zmod.FULL_SIZE.unit}
        assert len(at_calls) > 200
        assert_holds_the_log(at_calls, iv_calls)

    @pytest.mark.parametrize("size", [zmod.FULL_SIZE, zmod.SIGN_SIZE], ids=["full", "sign"])
    def test_edge_arguments_hold_mpmath(self, monkeypatch, size):
        at_calls, iv_calls = record_logs(monkeypatch)
        unit = size.unit
        one = 1 << unit
        # lower ends that rounding puts just below 1, where n = -1 takes
        # ln 2's upper end for the lower bound
        for below in (1, 2, 5, 1 << (unit // 2), one >> 1):
            zmod.log_iv((one - below, one + 3), unit)
        # zeta near 2^52 at r = 1 + 2^-52, and its log G
        zmod.log_g_iv(1, zmod.exponent(1 + 2**-52), size)
        assert zmod.log_g_iv(math.inf, zmod.exponent(1 + 2**-52), size)[0][0] > 36 << unit
        # exact powers of two 2^j, where the atanh is 0: n ln 2 alone
        for j in range(-unit, 64):
            power = one << j if j >= 0 else one >> -j
            zmod.log_iv((power, power), unit)
        # and past |n| = 64, where ln 2 takes more guard bits
        for n in (64, 65, 1000, 2**20):
            zmod._log_at(1, -n, unit)
            zmod._log_at(3, n, unit)
        assert_holds_the_log(at_calls, iv_calls)


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
        log_z = iv_bracket(iv.log(kernel(2)))
        assert abs(log_g.mid - log_z.mid) < 1e-10

    def test_finite_near_one(self):
        b = log_g_bracket(1, 1.01)
        assert math.isfinite(b.lo) and math.isfinite(b.hi)

    def test_between_one_and_zeta(self):
        for k, r in ((1, 1.5), (3, 2.0), (7, 1.2)):
            log_g = log_g_bracket(k, r)
            log_z = iv_bracket(iv.log(kernel(r)))
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
