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
    values = [v for e in range(-30, 64) for v in neighbours(2.0**e, 3)]
    assert_matches(values)


def test_doubles_each_side_of_a_power_of_ten():
    values = [v for d in range(-7, 17) for v in neighbours(float(f"1e{d}"), 40)]
    assert_matches(values)


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
    values = np.array([1e-9] * 300 + [1.5] * 299)
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


# Bit patterns of the writer's range [1e-6, 1e17), less the powers of two.
LOW, HIGH = np.array([1e-6, 1e17]).view(np.int64).tolist()
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
