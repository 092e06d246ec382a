"""Library entry points reject a non-finite r with a typed error."""

import math

import pytest

from sigma_density import density, explorer, zeta
from sigma_density.errors import DomainError

INF = math.inf

ENTRY_POINTS = {
    "density_report": lambda t: density.density_report(t, 1, INF),
    "t_func": lambda t: density.t_func(t, 1, 1, INF),
    "tail": lambda t: density.tail(t, 1, 1, INF),
    "gap_interval": lambda t: density.gap_interval(t, 1, 1, INF),
    "zeta": lambda t: zeta.zeta(INF),
    "g_k": lambda t: zeta.g_k(1, INF),
    "greedy_approximate": lambda t: explorer.greedy_approximate(t, 1, INF, 0.1, 10),
    "range_census": lambda t: explorer.range_census(t, 1, INF, 10),
    "analytic_gap_scan": lambda t: explorer.analytic_gap_scan(t, 1, INF, 3),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_infinite_r_is_a_domain_error(table, name):
    with pytest.raises(DomainError, match="finite"):
        ENTRY_POINTS[name](table)
