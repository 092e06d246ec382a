"""Library entry points reject non-finite input with a typed error."""

import math

import pytest

from sigma_density import density, explorer, zeta
from sigma_density.errors import DomainError

INF = math.inf

ENTRY_POINTS = {
    "density_report": lambda t: density.density_report(t, 1, INF),
    "t_func": lambda t: density.t_func(t, 1, 1, INF),
    "t_sign": lambda t: density.t_sign(t, 1, 1, INF, zeta.SIGN_SIZE),
    "t_float": lambda t: density.t_float(t, 1, 1, INF),
    "greedy_approximate": lambda t: explorer.greedy_approximate(t, 1, INF, 0.1, 10),
    "range_census": lambda t: explorer.range_census(t, 1, INF, 10),
    "analytic_gap_scan": lambda t: explorer.analytic_gap_scan(t, 1, INF, 3),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_infinite_r_is_a_domain_error(table, name):
    with pytest.raises(DomainError, match="finite"):
        ENTRY_POINTS[name](table)


def test_nan_target_is_a_domain_error(table):
    with pytest.raises(DomainError, match="target must be >= 0, got nan"):
        explorer.greedy_approximate(table, 1, 2.0, math.nan, 10)
