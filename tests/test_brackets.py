import math

import pytest

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
    assert b.contains(1.2)
    assert not b.contains(1.6)


def test_sign_tests():
    assert Bracket(0.1, 0.2).certified_sign() == 1
    assert Bracket(-0.2, -0.1).certified_sign() == -1
    assert Bracket(-0.1, 0.1).certified_sign() is None
    assert Bracket(-0.1, 0.0).nonpositive()
    assert not Bracket(-0.1, 0.0).strictly_positive()


def test_from_value_error_encloses():
    b = Bracket.from_value_error(1.0, 1e-10)
    assert b.lo < 1.0 - 0.9e-10 and b.hi > 1.0 + 0.9e-10


def test_eps_floor_is_loud():
    check_eps(1e-12)
    with pytest.raises(PrecisionError):
        check_eps(PRECISION_FLOOR / 10)
    with pytest.raises(DomainError):
        check_eps(0.0)
