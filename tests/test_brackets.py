import math

import pytest
from hypothesis import given, strategies as st

from sigma_density.brackets import PRECISION_FLOOR, Bracket, check_eps
from sigma_density.errors import DomainError, PrecisionError

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)


def test_invalid_bracket_rejected():
    with pytest.raises(DomainError):
        Bracket(1.0, 0.0)
    with pytest.raises(DomainError):
        Bracket(math.nan, 1.0)


def test_basic_accessors():
    b = Bracket(1.0, 1.5)
    assert b.width == 0.5
    assert b.mid == 1.25
    assert b.contains(1.2)
    assert not b.contains(1.6)


def test_sign_tests():
    assert Bracket(0.1, 0.2).certified_sign() == 1
    assert Bracket(-0.2, -0.1).certified_sign() == -1
    assert Bracket(-0.1, 0.1).certified_sign() is None
    assert Bracket(-0.1, 0.0).nonpositive()
    assert not Bracket(-0.1, 0.0).strictly_positive()


@given(a=finite, b=finite, c=finite, d=finite, x=st.floats(0, 1), y=st.floats(0, 1))
def test_arithmetic_soundness(a, b, c, d, x, y):
    # any point of each operand interval must map into the result interval
    b1 = Bracket(min(a, b), max(a, b))
    b2 = Bracket(min(c, d), max(c, d))
    # clamped: lo + x * (hi - lo) can round past hi when |lo| >> |hi|
    p1 = min(b1.lo + x * (b1.hi - b1.lo), b1.hi)
    p2 = min(b2.lo + y * (b2.hi - b2.lo), b2.hi)
    assert (b1 + b2).contains(p1 + p2)
    assert (b1 - b2).contains(p1 - p2)
    assert (-b1).contains(-p1)


def test_from_value_error_encloses():
    b = Bracket.from_value_error(1.0, 1e-10)
    assert b.lo < 1.0 - 0.9e-10 and b.hi > 1.0 + 0.9e-10


def test_eps_floor_is_loud():
    check_eps(1e-12)
    with pytest.raises(PrecisionError):
        check_eps(PRECISION_FLOOR / 10)
    with pytest.raises(DomainError):
        check_eps(0.0)
