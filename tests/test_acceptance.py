"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import json
import math
import time

import numpy as np
import pytest

from oracles import contains, library_bracket, log_sigma_of_alphas, r1_surrogate, selector_oracle, tail_bracket
from sigma_density import cli, density, explorer, primes, solver, zeta


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion failed: {name} {detail}"


@pytest.fixture(scope="module")
def table():
    return primes.load_or_sieve(primes.DEFAULT_LIMIT)


def test_01_limit_threshold_reproduction(capsys):
    start = time.monotonic()
    code = cli.main(["eta-limit", "--eps", "1e-9"])
    elapsed = time.monotonic() - start
    envelope = json.loads(capsys.readouterr().out)
    lo, hi = envelope["result"]["value"]
    with capsys.disabled():
        _report(
            "limit threshold bracket around 1.8877909",
            code == 0
            and lo <= 1.8877909 + 1e-7
            and hi >= 1.8877909 - 1e-7
            and abs(0.5 * (lo + hi) - 1.8877909) < 1e-6
            and elapsed < 5.0,
            f"bracket=[{lo}, {hi}], {elapsed:.2f}s",
        )


def test_02_truncated_surrogate_root(table, capsys):
    start = time.monotonic()
    result = r1_surrogate(table, 1e-8)
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(
            "surrogate root near 1.864633",
            abs(result.value.mid - 1.864633) < 1e-5 and elapsed < 10.0,
            f"mid={result.value.mid}, {elapsed:.2f}s",
        )


def test_03_selector_values(table, capsys):
    start = time.monotonic()
    ks = [*range(1, 11), 30, math.inf]
    selectors = {k: solver.m_selector(k) for k in ks}
    solved = {k: selector_oracle(table, k) for k in ks}
    proved = density.check_selector(table).all_passed
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(
            "selector is 1 at k=1 and 2 for k=2..10, 30 and inf, proved and solved",
            proved
            and selectors == solved
            and selectors[1] == 1
            and all(selectors[k] == 2 for k in ks[1:])
            and elapsed < 60.0,
            f"{selectors}, {elapsed:.1f}s",
        )


def test_04_ordering_chain(table, capsys):
    surrogate = r1_surrogate(table, 1e-8)
    t11 = solver.r_threshold(table, 1, 1)
    t12 = solver.r_threshold(table, 1, 2)
    t14 = solver.r_threshold(table, 1, 4)
    limit = solver.eta_limit(table, 1e-9)
    eta1 = solver.eta(table, 1)
    chain = (
        t11.value.hi < t12.value.lo
        and t12.value.hi < limit.value.lo
        and (t14.boundary or t14.value.lo > t11.value.hi)
        and 1.864633 < eta1.value.lo
        and eta1.value.hi < 1.8877909
    )
    with capsys.disabled():
        _report(
            "certified ordering chain R1(1) < R1(2) < limit, R1(4) > R1(1), 1.864633 < eta_1 < 1.8877909",
            chain,
            f"R1(1)={t11.value.mid:.9f}, R1(2)={t12.value.mid:.9f}, "
            f"R1(4)={'2 (boundary)' if t14.boundary else t14.value.mid}",
        )
        # r1 is the root of the float surrogate V, found by a float64 walk:
        # this comparison is not certified.
        _report(
            "float surrogate root r1 < R1(1) (float64, not certified)",
            surrogate.value.hi < t11.value.lo,
            f"r1={surrogate.value.mid:.9f}, R1(1).lo={t11.value.lo!r}",
        )


def test_05_threshold_growth_in_k(table, capsys):
    start = time.monotonic()
    ok = True
    details = []
    for m in (1, 2):
        for k in range(1, 10):
            for eps in (1e-10, 1e-12, 1e-13):
                a = solver.r_threshold(table, k, m, eps)
                b = solver.r_threshold(table, k + 1, m, eps)
                if b.value.lo > a.value.hi:
                    break
            else:
                ok = False
                details.append(f"m={m}, k={k} unseparated")
    for k in range(1, 11):
        result = solver.r_threshold(table, k, 4)
        if not (result.boundary and result.value.mid == 2.0):
            ok = False
            details.append(f"m=4, k={k} expected boundary")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    with capsys.disabled():
        _report(
            "thresholds strictly grow with k (m=1,2); m=4 stays at the boundary",
            ok,
            "; ".join(details) or f"{elapsed:.1f}s",
        )


def test_06_gap_ratio_search(table, capsys):
    start = time.monotonic()
    report = primes.verify_gap_lemma(table)
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(
            "exact-integer gap check below 396738",
            report.passed and elapsed < 5.0,
            f"max ratio {report.max_ratio:.6f} at j={report.argmax_index}, "
            f"{report.checked} checked, {elapsed:.2f}s",
        )


def test_07_inequality_suites(capsys):
    start = time.monotonic()
    report = density.check_inequalities()
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(
            "inequalities proved by cell covers with positive minimum slack",
            report.all_passed and elapsed < 30.0,
            ", ".join(f"{c.name}:{c.min_slack:.2e}/{c.cells} cells" for c in report.checks)
            + f", {elapsed:.1f}s",
        )


def test_08_dichotomy_near_threshold(table, capsys):
    ok = True
    details = []
    for k in (1, 2, 5):
        eta_k = solver.eta(table, k).value.mid
        m_k = solver.m_selector(k)
        below = all(
            density.t_func(table, k, m, eta_k - 0.01).nonpositive() for m in (1, 2, 4)
        )
        above = density.t_func(table, k, m_k, eta_k + 0.01).strictly_positive()
        if not (below and above):
            ok = False
            details.append(f"k={k} below={below} above={above}")
    with capsys.disabled():
        _report(
            "dichotomy at threshold +- 0.01 for k in {1, 2, 5}",
            ok,
            "; ".join(details),
        )


def test_09_census_avoids_certified_gap(table, capsys):
    start = time.monotonic()
    census = explorer.range_census(table, 1, 2, 100_000)
    elapsed = time.monotonic() - start
    first_level = [g for g in census.analytic_gaps if g[0] == 1]
    inside = 0
    for m, left, right in first_level:
        inside += int(np.sum((census.values > left) & (census.values < right)))
    with capsys.disabled():
        _report(
            "census values avoid the certified first-level gap",
            bool(first_level) and inside == 0 and elapsed < 60.0,
            f"{len(census.values)} values, gap={first_level}, {elapsed:.1f}s",
        )


def test_10_greedy_convergence(table, capsys):
    k, r, steps = 1, 1.5, 10_000
    log_g = library_bracket(zeta.log_g_iv(k, zeta.exponent(r))[0]).lo
    tail_bound = tail_bracket(table, k, steps, r).hi
    rng = np.random.default_rng(20260825)
    ok = True
    worst = 0.0
    for _ in range(100):
        x = float(rng.uniform(0.0, log_g))
        trace = explorer.greedy_approximate(table, k, r, x, steps)
        reeval = log_sigma_of_alphas(table, trace.alphas, r)
        worst = max(worst, trace.residual)
        if not (
            0 <= trace.residual < tail_bound and abs(reeval - trace.achieved) < 1e-12
        ):
            ok = False
            break
    with capsys.disabled():
        _report(
            "greedy residuals within the tail bound, witnesses consistent",
            ok,
            f"worst residual {worst:.3e} < tail bound {tail_bound:.3e}",
        )


def test_11_zeta_sanity(capsys):
    two, four = (library_bracket(zeta.zeta_iv(zeta.exponent(s))[0]) for s in (2, 4))
    with capsys.disabled():
        _report(
            "zeta brackets contain the classical closed forms",
            contains(two, math.pi**2 / 6) and contains(four, math.pi**4 / 90),
            f"zeta(2) width {two.width:.1e}, zeta(4) width {four.width:.1e}",
        )
