"""Library entry points reject non-finite input, and a k that is neither
a positive integer nor inf, with a typed error."""

import math

import pytest

from mpmath.libmp import mpi_log

from sigma_density import density, explorer, solver, zeta
from sigma_density.brackets import Bracket
from sigma_density.errors import DomainError

INF = math.inf

ENTRY_POINTS = {
    "density_report": lambda t: density.density_report(t, 1, INF),
    "t_func": lambda t: density.t_func(t, 1, 1, INF),
    "t_sign": lambda t: density.t_sign(t, 1, 1, INF),
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


@pytest.mark.parametrize("k", [math.nan, 2.5, -INF, 0, -1, "3", None])
def test_k_that_is_not_a_positive_integer_or_inf_is_a_domain_error(table, k):
    with pytest.raises(DomainError, match="k must be a positive integer or inf"):
        density.density_report(table, k, 1.5)


def test_infinite_m_is_a_domain_error(table):
    with pytest.raises(DomainError, match="m must be a positive integer, got inf"):
        density.t_func(table, 1, INF, 1.5)


def test_a_gap_scan_below_level_1_is_a_domain_error(table):
    with pytest.raises(DomainError, match="^m_max must be >= 1, got 0$"):
        explorer.analytic_gap_scan(table, 1, 2.0, 0)


def test_k_inf_is_the_unrestricted_sum(table):
    # G_inf(r) = zeta(r), and the range is dense exactly up to eta_inf ~ 1.8878
    report = density.density_report(table, INF, 1.5)
    assert report.log_g == Bracket.from_iv(mpi_log(zeta.zeta_iv(zeta.to_iv(1.5))[0], 200))
    assert report.verdict == "dense"
    assert density.density_report(table, INF, 1.95).verdict == "not_dense"


def test_census_refuses_k_inf_before_it_allocates(table, sieve_bounds):
    with pytest.raises(DomainError, match="k must be a positive integer, got inf"):
        explorer.range_census(table, INF, 2.0, 10**6)
    assert sieve_bounds == []


def test_greedy_walk_refuses_k_inf_before_it_sieves(table, sieve_bounds):
    with pytest.raises(DomainError, match="k must be a positive integer, got inf"):
        explorer.greedy_approximate(table, INF, 2.0, 0.5, 10**6)
    assert sieve_bounds == []


def test_eta_table_refuses_k_max_inf(table, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eta_table must not solve for k_max = inf")

    monkeypatch.setattr(solver, "r_threshold", no_solve)
    with pytest.raises(DomainError, match="k_max must be a positive integer, got inf"):
        solver.eta_table(table, INF)
