"""The CLI's array writer of floats against ``float.__repr__``, byte for byte."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import repr_join
from sigma_density import cli, explorer

SEPARATOR = ",\n      "


def written(values, separator=SEPARATOR, row_separator=None, width=None):
    """The array writer's text of ``values``; it must not decline them."""
    values = np.asarray(values, dtype=np.float64)
    text = cli._float_text(np, values, separator, row_separator or separator, width or 1)
    assert text is not None
    return text


def assert_matches(values, **separators):
    """Both the array writer and _Flat.join write ``values`` as the oracle does."""
    expected = repr_join(values, SEPARATOR, **separators)
    assert written(values, **separators) == expected
    flat = cli._Flat(list(map(float, values)), float.__repr__, separators.get("width"))
    assert "".join(flat.join(SEPARATOR, separators.get("row_separator"))) == expected


def neighbours(x, count):
    """The ``count`` doubles each side of x, and x."""
    below = [x]
    above = [x]
    for _ in range(count):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return [*reversed(below[1:]), *above]


@pytest.mark.parametrize("k, r", [(1, 1.55), (2, 1.95), (3, 2.4)])
def test_census_values(table, k, r):
    census = explorer.range_census(table, k, r, 300_000)
    for start in range(0, len(census.values), cli.JOIN_BLOCK):
        block = census.values[start : start + cli.JOIN_BLOCK]
        assert written(block) == repr_join(block, SEPARATOR)
    gaps = [value for gap in census.gaps for value in gap]
    assert_matches(gaps, row_separator="],\n    [", width=3)


def test_ties_to_even():
    # odd * 2**-17 in [1, 2): 18 significant digits, so the nearest 17
    # digits are an exact tie.
    assert_matches(1.0 + (2 * np.arange(2**16) + 1) * 2.0**-17)


def test_powers_of_two_and_their_neighbours():
    values = [v for e in range(-70, 64) for v in neighbours(2.0**e, 3)]
    assert_matches(values)


def test_doubles_each_side_of_a_power_of_ten():
    values = [v for d in range(-20, 17) for v in neighbours(float(f"1e{d}"), 40)]
    assert_matches(values)


def test_short_mantissas():
    # m * 2**e with m odd and small: below 1e-6, y = x * 10**j is often
    # an exact integer or half-integer, such as 3 * 2**-25 at j = 23.
    values = [
        math.ldexp(m, e)
        for e in range(-75, -15)
        for m in range(1, 64, 2)
        if 1e-20 <= math.ldexp(m, e) < 1e-6
    ]
    assert math.ldexp(3, -25) in values
    assert_matches(values)
    assert_matches([0.0, *values[:1000], 0.0, 0.0, *values[1000:]])


def least_solution(a, m, lo, hi):
    """The least x >= 0 with lo <= a * x % m <= hi, for 0 <= lo <= hi < m,
    or None, by Euclid's descent: when no multiple of a lies in [lo, hi],
    a * x - m * y is in [lo, hi] for the least y with
    -hi % a <= m * y % a <= -lo % a, and x is the least that y allows."""
    a %= m
    if lo == 0:
        return 0
    if a == 0:
        return None
    x = -(-lo // a)
    if a * x <= hi:
        return x
    y = least_solution(m % a, a, (-hi) % a, (-lo) % a)
    return None if y is None else -(-(lo + m * y) // a)


# Solutions of each window that near_ties takes.
SOLUTIONS = 4


def near_ties():
    """Doubles x in [1e-20, 1e-6) whose y = x * 10**j, j = 16 - d, lies
    beside a boundary of _float_text's choices, on each side, at distances
    from 2**-58 to 2**-43: y beside an integer, a half-integer, 5 mod 10
    or 50 mod 100, or a midpoint between x and a neighbour, times 10**j,
    beside a multiple of 10 or 100.

    x = M * 2**-(n + j) with M in [2**52, 2**53) gives y = M * 5**j / 2**n,
    and a midpoint (2M +- 1) * 5**j / 2**(n + 1).  So each boundary asks
    for the least few M with (a * M + b) % modulus in a window beside it."""
    values = []
    for j in range(23, 37):
        five = 5**j
        for n in range(40, 90):
            if not (10**16 * 2**n <= 2**53 * five and five * 2**52 < 10**17 * 2**n):
                continue
            # (a, b, modulus, boundary, -log2 of the modulus's unit of y)
            kinds = [(five, 0, 2**n, target, n) for target in (0, 2 ** (n - 1))]
            kinds += [(five, 0, 10**e * 2**n, 10**e // 2 * 2**n, n) for e in (1, 2)]
            kinds += [(2 * five, s * five, 10**e * 2 ** (n + 1), 0, n + 1) for e in (1, 2) for s in (1, -1)]
            for a, b, modulus, target, unit in kinds:
                for e in range(max(0, unit - 58), unit - 44):
                    for lo, hi in ((2**e, 2 ** (e + 1) - 1), (-(2 ** (e + 1)) + 1, -(2**e))):
                        # The least few M >= start with a * M + b in
                        # [target + lo, target + hi] modulo modulus.
                        start = 2**52
                        for _ in range(SOLUTIONS):
                            shift = (a * start + b - target - lo) % modulus
                            low, high = -shift % modulus, (hi - lo - shift) % modulus
                            # A window that wraps around holds 0.
                            x = least_solution(a, modulus, low, high) if low <= high else 0
                            if x is None or start + x >= 2**53:
                                break
                            m = start + x
                            if 10**16 * 2**n <= m * five < 10**17 * 2**n:
                                values.append(math.ldexp(m, -n - j))
                            start = m + 1
    return values


# Near ties that a weaker writer gets wrong: the first without TwoSum's
# error term, the rest with no guard bands.
HARD_CASES = [
    float.fromhex(text)
    for text in (
        "0x1.fd6bb72a4345ap-42",
        "0x1.ed34c8c77e7e4p-67",
        "0x1.1fb41fc9b4745p-65",
        "0x1.0d4da405f7fb8p-43",
        "0x1.50a10d0775fa6p-40",
        "0x1.bcea0ec21e251p-38",
        "0x1.47ed0d61fd4eap-28",
    )
]


def test_near_ties():
    values = near_ties()
    assert len(values) > 9000
    assert all(1e-20 <= v < 1e-6 for v in values)
    assert set(HARD_CASES) <= set(values)
    assert_matches(values)


def test_greedy_deficits(table, plan_walks):
    # Every D list of the benchmark's walks: mostly in [1e-16, 1e-6), with
    # zeros, so that the array writer takes nearly every block.
    written_blocks = blocks = 0
    for k, r, x, steps in plan_walks:
        deficits = explorer.greedy_approximate(table, k, r, x, steps).D
        for start in range(0, steps, cli.JOIN_BLOCK):
            block = deficits[start : start + cli.JOIN_BLOCK]
            text = cli._float_text(np, block, SEPARATOR, SEPARATOR, 1)
            if text is not None:
                assert text == repr_join(block, SEPARATOR)
                written_blocks += 1
            blocks += 1
    assert written_blocks >= 0.9 * blocks


def test_small_large_and_zero():
    rng = np.random.default_rng(18)
    digits = rng.integers(1, 17, 2000).tolist()
    short = [round(v, n) for v, n in zip(rng.random(2000).tolist(), digits)]
    values = [
        0.0,
        *(rng.random(3000) * 10.0 ** rng.integers(-6, 0, 3000)),
        *(rng.random(1000) * 10.0 ** rng.integers(15, 17, 1000)),
        *short,
        *(v * 10.0**e for v, e in zip(short, itertools.cycle(range(-6, 15)))),
        1e-5, 1e-6, 1.5e-6, 1e-4, 1e15, 1e16, 1.25e16, 9.999999999999998e16, 0.1, 0.5, 100.0,
    ]
    assert_matches(values)


def test_values_out_of_range_are_written_by_repr():
    # In a block mostly in range, negative values, -0.0, tiny, huge and
    # subnormal values are spliced in from float.__repr__.
    rng = np.random.default_rng(7)
    odd = [-1.5, -0.0, 5e-324, 1e-300, 2.5e-7, 1e17, 1.7976931348623157e308, -2e-10]
    values = (1.0 + rng.random(600)).tolist()
    for i, v in enumerate(odd):
        values[40 * i + 3] = v
    assert_matches(values)


def test_a_block_mostly_out_of_range_is_declined():
    values = np.array([1e-30] * 300 + [1.5] * 299)
    assert cli._float_text(np, values, ",", ",", 1) is None
    assert "".join(cli._Flat(values, float.__repr__).join(",")) == repr_join(values, ",")


def test_block_boundaries():
    n = 2 * cli.JOIN_BLOCK + cli.FLOAT_TEXT_MIN + 1
    values = np.linspace(0.001, 3.0, n)
    pieces = cli._flat(values).join("\n")
    assert "".join(pieces) == repr_join(values, "\n")
    lines = [cli.JOIN_BLOCK, cli.JOIN_BLOCK + 1, cli.FLOAT_TEXT_MIN + 2]
    assert [len(piece.split("\n")) for piece in pieces] == lines
    rows = cli._Flat(values[: 3 * 2000].tolist(), float.__repr__, 3)
    pieces = rows.join(",", ";\n")
    assert "".join(pieces) == repr_join(values[: 3 * 2000], ",", ";\n", 3)
    assert [len(re.split(",|;\n", piece.removeprefix(";\n"))) for piece in pieces] == [4095, 1905]


# Bit patterns of the writer's range [1e-20, 1e17), less the powers of two.
LOW, HIGH = np.array([1e-20, 1e17]).view(np.int64).tolist()
IN_RANGE = st.integers(LOW, HIGH - 1).filter(lambda bits: bits % 2**52)
MOSTLY_IN_RANGE = st.lists(IN_RANGE, min_size=1, max_size=64).flatmap(
    lambda in_range: st.lists(st.integers(0, 2**64 - 1), max_size=len(in_range)).map(
        lambda anything: in_range + anything
    )
)


@settings(max_examples=300, deadline=None)
@given(bits=MOSTLY_IN_RANGE)
def test_bit_patterns(bits):
    # At least half the doubles in the writer's range, which it must not
    # decline, among any finite doubles.
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    assert written(values) == repr_join(values, SEPARATOR)


# Bit patterns of [1e-20, 1e-6), where 5**j is two doubles.
DEEP = st.integers(*np.array([1e-20, 1e-6]).view(np.int64).tolist()).filter(lambda bits: bits % 2**52)


@settings(max_examples=300, deadline=None)
@given(bits=st.lists(DEEP, min_size=1, max_size=64))
def test_deep_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert written(values) == repr_join(values, SEPARATOR)
