"""The CLI's array writer against ``float.__repr__``, byte for byte: orjson's
digits with the three layout fix-ups of ``cli._repr_layout``."""

import dataclasses
import fractions
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import first_difference, neighbours, repr_join
from sigma_density import cli, explorer

# The arrays below are written two levels deep, as an envelope's result
# fields are: json.dumps(indent=2) puts this between their items, and a
# table's rows around this between the cells of a row.
DEPTH = 2
SEPARATOR = ",\n      "
CELL = ",\n        "
ROW = "\n      ],\n      [\n        "


def array(values, width=None):
    """``values`` as a float64 array, as rows of ``width`` when given."""
    values = np.asarray(values, dtype=np.float64)
    return values if width is None else values.reshape(-1, width)


def written(values, width=None, depth=DEPTH):
    """The array writer's text of ``values``, as rows of ``width`` when given."""
    return cli._array_text(array(values, width), depth).decode()


def joined(values, width=None, depth=DEPTH):
    """The text of _array_pieces' pieces of ``values``."""
    return b"".join(cli._array_pieces(array(values, width), depth)).decode()


def expected(values, width=None):
    """json's items of ``values`` DEPTH levels deep, by float.__repr__."""
    if width is None:
        return repr_join(values, SEPARATOR)
    return "[\n        " + repr_join(values, CELL, ROW, width) + "\n      ]"


def assert_matches(values, width=None):
    """The array writer and _array_pieces write ``values`` as the oracle
    does, in JSON and, for a flat array, a value a line."""
    assert first_difference(written(values, width), expected(values, width)) is None
    assert first_difference(joined(values, width), expected(values, width)) is None
    if width is None:
        assert first_difference(written(values, depth=None), repr_join(values, "\n")) is None


@pytest.mark.parametrize("k, r", [(1, 1.55), (2, 1.95), (3, 2.4)])
def test_census_values(table, k, r):
    census = explorer.range_census(table, k, r, 300_000)
    for start in range(0, len(census.values), cli.JOIN_BLOCK):
        block = census.values[start : start + cli.JOIN_BLOCK]
        assert first_difference(written(block), expected(block)) is None
    gaps = [value for gap in census.gaps for value in gap]
    assert_matches(gaps, width=3)


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


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("d", range(-20, 17))
def test_one_decade_blocks(d, width):
    # Every value in [10**d, 10**(d + 1)), with its least and greatest
    # doubles: each decade where orjson's layout and repr's may part.
    decade = fractions.Fraction(10) ** d
    low, high = float(f"1e{d}"), float(f"1e{d + 1}")
    rng = np.random.default_rng(d + 20)
    values = rng.uniform(low, high, 1536).tolist()
    values[:2] = [low if low >= decade else math.nextafter(low, math.inf), math.nextafter(high, -math.inf)]
    assert all(decade <= v < 10 * decade for v in map(fractions.Fraction, values))
    if width == 1:
        assert_matches(values)
    else:
        assert_matches(values, width=3)


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
    beside a boundary of a digit writer's choices, on each side, at distances
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


# Near ties that a weaker writer gets wrong: a numpy writer that scaled x
# by 10**j in doubles got the first wrong without TwoSum's error term, the
# rest with no guard bands.
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
    # zeros, so most exponents have two digits and many one.
    for k, r, x, steps in plan_walks:
        deficits = explorer.greedy_approximate(table, k, r, x, steps).D
        for start in range(0, steps, cli.JOIN_BLOCK):
            block = deficits[start : start + cli.JOIN_BLOCK]
            assert first_difference(written(block), expected(block)) is None


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
    # Negative values, -0.0, tiny, huge and subnormal values, which the
    # numpy writer before orjson's left to float.__repr__, among values in
    # [1, 2): written in the block as float.__repr__ writes them.
    rng = np.random.default_rng(7)
    odd = [-1.5, -0.0, 5e-324, 1e-300, 2.5e-7, 1e17, 1.7976931348623157e308, -2e-10]
    values = (1.0 + rng.random(600)).tolist()
    for i, v in enumerate(odd):
        values[40 * i + 3] = v
    assert_matches(values)


def test_a_block_mostly_out_of_range_is_declined():
    # The numpy writer before orjson's declined a block mostly outside
    # [1e-20, 1e17); the array writer declines none.
    values = np.array([1e-30, -2.5e300, 1e17] * 300 + [1.5] * 299)
    assert_matches(values)


def test_the_fifth_decade():
    # orjson writes [1e-5, 1e-4) without an exponent (0.0000123), repr
    # with one (1.23e-05): one digit, several, negative, the decade's
    # least and greatest doubles and those beside them, first and last.
    values = [1e-05, 5e-05, -1.23e-05, -5e-05, 1.5, 9.87654321e-05, -1e-05, 0.0001, 1e-06]
    values += neighbours(1e-05, 3) + neighbours(0.0001, 3) + neighbours(-1e-05, 3)
    for block in (values, values[::-1], [5e-05], [-1e-05], [1.0, 1e-05]):
        assert_matches(block)
    assert written([1e-05, 5e-05, -1.23e-05]) == SEPARATOR.join(["1e-05", "5e-05", "-1.23e-05"])


@pytest.mark.parametrize("exponent", range(6, 10))
def test_one_digit_exponents_at_an_end(exponent):
    # orjson writes e-7 where repr writes e-07: before a separator, at the
    # end of a block and at the end of a row.
    value = float(f"1.5e-{exponent}")
    assert_matches([value, 1.0, value])
    assert_matches([value])
    assert_matches([1.0, 2.0, value, 3.0, value, value], width=3)
    assert_matches([value] * 3, width=1)


def test_positive_exponents_and_extremes():
    # orjson writes 1e16 where repr writes 1e+16.
    values = [float(f"{m}e{e}") for e in range(16, 309) for m in (1, 1.25, -7.5)]
    values = [v for v in values if math.isfinite(v)]
    values += [5e-324, -5e-324, -0.0, 0.0, 1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308]
    values += neighbours(1e16, 3) + neighbours(-1e16, 3)
    assert_matches(values)
    assert_matches(values[::-1])
    assert_matches(values[: len(values) // 3 * 3], width=3)


def test_gap_rows_across_decades():
    # A census's gap rows (left, right, width) with widths in [1e-7, 1e-4),
    # across the one-digit exponents and the fifth decade.
    rng = np.random.default_rng(40)
    left = 1.0 + rng.random(3000)
    width = 10.0 ** rng.uniform(-7, -4, 3000)
    rows = np.stack([left, left + width, width], axis=1)
    assert np.count_nonzero(rows[:, 2] < 1e-5) > 1000 and np.count_nonzero(rows[:, 2] >= 1e-5) > 500
    assert_matches(rows.ravel(), width=3)


def test_views_and_byte_orders():
    # orjson refuses a view that is not C-contiguous and misreads a
    # byte-swapped array, so the writer hands it a native, contiguous copy.
    rng = np.random.default_rng(41)
    table = rng.random((200, 4)) * 10.0 ** rng.integers(-9, 17, (200, 4))
    views = [table[::2, 1], table[:, 1:], table.T[:3], table[::-1]]
    for view in views + [table.astype(">f8"), np.arange(-5, 300).astype(">i4")]:
        assert not view.flags.c_contiguous or not view.dtype.isnative
        # json writes an int by int.__repr__ and a float by float.__repr__.
        assert "[\n  " + cli._array_text(view, 0).decode() + "\n]" == json.dumps(view.tolist(), indent=2)
        if view.ndim == 1:
            assert cli._array_text(view).decode() == "\n".join(map(repr, view.tolist()))


def test_repr_layout_leaves_repr_text_alone():
    # Each fix-up finds nothing in text already in repr's layout, as a
    # later orjson might write it.
    values = np.array([1e16, 1.5e-07, 1.23e-05, -5e-05, 0.0001, 1e-05, 5e-324, 1.0, -0.0, 1e308])
    text = ("[" + ",".join(map(float.__repr__, values.tolist())) + "]").encode()
    assert cli._repr_layout(values, text) == text


def test_block_boundaries():
    n = 2 * cli.JOIN_BLOCK + 513
    values = np.linspace(0.001, 3.0, n)
    pieces = list(cli._array_pieces(values))
    assert first_difference(b"".join(pieces).decode(), repr_join(values, "\n")) is None
    lines = [cli.JOIN_BLOCK, cli.JOIN_BLOCK + 1, 514]
    assert [len(piece.split(b"\n")) for piece in pieces] == lines
    # Rows of three: a piece holds the most whole rows that fit in a block.
    step = cli.JOIN_BLOCK // 3
    pieces = list(cli._array_pieces(array(values[: 3 * step + 1905], 3), DEPTH))
    assert first_difference(b"".join(pieces).decode(), expected(values[: 3 * step + 1905], 3)) is None
    assert [piece.count(b"[") for piece in pieces] == [step, 635]


# Bit patterns of [1e-20, 1e17), less the powers of two: the range of the
# numpy writer before orjson's.
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
    # At least half the doubles in [1e-20, 1e17), among any finite doubles.
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    assert written(values) == expected(values)


# Bit patterns of [1e-20, 1e-6), where 5**j is two doubles.
DEEP = st.integers(*np.array([1e-20, 1e-6]).view(np.int64).tolist()).filter(lambda bits: bits % 2**52)


@settings(max_examples=300, deadline=None)
@given(bits=st.lists(DEEP, min_size=1, max_size=64))
def test_deep_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert written(values) == expected(values)


# Bit patterns of any finite double, and of the values beside which runs
# are told apart by their bits: -0.0 and 0.0, the least subnormal, and
# 1e-30.
FINITE = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: int(np.float64(v).view(np.uint64)))
SPECIALS = np.array([-0.0, 0.0, 5e-324, 1e-30]).view(np.uint64).tolist()
SPECIAL = st.sampled_from(SPECIALS)


@settings(max_examples=150, deadline=None)
@given(
    patterns=st.lists(st.one_of(IN_RANGE, DEEP, FINITE, SPECIAL), min_size=1, max_size=6),
    runs=st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3000)), min_size=1, max_size=12),
)
@example(patterns=SPECIALS[:2], runs=[(0, 600), (1, 600), (0, 1)])  # -0.0 beside 0.0
def test_runs_of_equal_values(patterns, runs):
    # Runs of a few bit patterns, 1 to 36000 values long: blocks whose runs
    # are RUN_LENGTH long on average take one repr a run, the rest the
    # array writer.
    which = [i % len(patterns) for i, _ in runs]
    values = np.repeat(np.array(patterns, dtype=np.uint64)[which], [n for _, n in runs]).view(np.float64)
    assert first_difference(joined(values), expected(values)) is None


def test_a_run_takes_one_repr(monkeypatch):
    def declined(*args):
        raise AssertionError("a block of one run went to _array_text")

    monkeypatch.setattr(cli, "_array_text", declined)
    values = np.full(cli.JOIN_BLOCK, 0.1)
    assert joined(values) == expected(values)


def test_a_walk_at_target_zero(table):
    # C is one run of 0.0, written a block at a time by one repr each.
    trace = explorer.greedy_approximate(table, 1, 2.4, 0.0, 3 * cli.JOIN_BLOCK)
    assert not trace.C.any()
    fields = {f.name: getattr(trace, f.name) for f in dataclasses.fields(trace)}
    got = b"".join(cli._json_pieces(cli._convert(fields, "", {}))).decode()
    plain = {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in fields.items()}
    assert first_difference(got, json.dumps(plain, indent=2) + "\n") is None
