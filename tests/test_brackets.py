import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import contains, from_value_error
from sigma_density.brackets import PRECISION_FLOOR, Bracket, check_eps
from sigma_density.errors import DomainError, PrecisionError


def test_invalid_bracket_rejected():
    with pytest.raises(DomainError):
        Bracket(1.0, 0.0)
    with pytest.raises(DomainError):
        Bracket(math.nan, 1.0)


def test_basic_accessors():
    b = Bracket(1.0, 1.5)
    assert b.width == 0.5
    assert b.mid == 1.25
    assert contains(b, 1.2)
    assert not contains(b, 1.6)


def test_sign_tests():
    assert Bracket(0.1, 0.2).certified_sign() == 1
    assert Bracket(-0.2, -0.1).certified_sign() == -1
    assert Bracket(-0.1, 0.1).certified_sign() is None
    assert Bracket(-0.1, 0.0).nonpositive()
    assert not Bracket(-0.1, 0.0).strictly_positive()


def test_from_value_error_encloses():
    b = from_value_error(1.0, 1e-10)
    assert b.lo < 1.0 - 0.9e-10 and b.hi > 1.0 + 0.9e-10


def test_eps_floor_is_loud():
    check_eps(1e-12)
    with pytest.raises(PrecisionError):
        check_eps(PRECISION_FLOOR / 10)
    with pytest.raises(DomainError):
        check_eps(0.0)


def outward(lo: int, hi: int, unit: int) -> Bracket:
    """float(Fraction) of each end of [lo 2^-unit, hi 2^-unit], then one
    double outward: the reference for Bracket.from_units."""
    scale = Fraction(2) ** unit
    return Bracket(
        math.nextafter(float(lo / scale), -math.inf), math.nextafter(float(hi / scale), math.inf)
    )


@pytest.mark.parametrize(
    "lo, hi, unit",
    [
        # ties, which round to even: 1 + 2^-53 to 1.0, 1 + 3 2^-53 to 1 + 2^-51
        ((1 << 53) + 1, (1 << 53) + 3, 53),
        # subnormal results: 2^-1075 ties to 0.0, 3 2^-1075 to 2^-1073
        (1, 3, 1075),
        (1, 1, 1074),
        # zero, and negative ends
        (0, 0, 216),
        (0, 1, 216),
        (-(1 << 53) - 3, -(1 << 53) - 1, 53),
        (-3, -1, 1075),
        (-5, 7, 96),
        # a unit of the kernel sizes, and a negative unit (an exp's exact ends)
        ((1 << 216) - 1, (1 << 216) + 1, 216),
        (3, 5, -2),
    ],
)
def test_from_units_rounds_each_end_to_nearest_then_outward(lo, hi, unit):
    assert Bracket.from_units(lo, hi, unit) == outward(lo, hi, unit)


def test_from_units_at_the_ties_and_below_the_doubles():
    assert Bracket.from_units((1 << 53) + 1, (1 << 53) + 3, 53) == Bracket(
        math.nextafter(1.0, 0.0), math.nextafter(1 + 2.0**-51, 2.0)
    )
    assert Bracket.from_units(1, 3, 1075) == Bracket(-(2.0**-1074), 2.0**-1073 + 2.0**-1074)
    assert Bracket.from_units(0, 0, 216) == Bracket(-(2.0**-1074), 2.0**-1074)


@given(
    lo=st.integers(-(2**300), 2**300),
    width=st.integers(0, 2**300),
    unit=st.integers(-64, 1200),
)
def test_from_units_equals_the_fraction_route(lo, width, unit):
    assert Bracket.from_units(lo, lo + width, unit) == outward(lo, lo + width, unit)
