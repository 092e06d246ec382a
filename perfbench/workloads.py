"""Seeded request streams for the benchmark workloads, and the checks on each output.

A workload is a list of ``sigma-density`` argv lists (without ``--out``):
the requests every run makes (the verify suites, and on solve
``table --kmax 10``) plus blocks, as many as fill the rest of ``--seconds``
of request time at the commit that added the benchmark.  Each block has a
fixed composition and only its parameters are drawn from the seed, so two
seeds differ in their inputs but not in their mix of work.  A block
holds the workload's focus plus a small share of every request kind the
focus lacks, so that every end-to-end metric is measured on every
workload.  The suites of ``verify --suite all`` are spread through the
run, and ``table --kmax 10`` sits in the middle of the solve workload.

The checks run on the output files after all timing has finished.
"""

from __future__ import annotations

import itertools
import random
import sys

import mpmath
import numpy as np

WORKLOADS = ("solve", "point", "census")

# The k -> infinity threshold as published, to 7 decimals: its certified
# bracket must meet the interval of numbers that round to it.
ETA_LIMIT = 1.8877909
ETA_LIMIT_ROUNDING = 5e-8

# Certified brackets of eta(k) for k = 1..10, from `sigma-density eta --k K`
# at eps 1e-10.  Any other certified bracket of the same root intersects
# these, so they are a sound oracle for verdicts and eta outputs.
ETA_REFERENCE = {
    1: (1.8646345674817102, 1.864634567539912),
    2: (1.886908414499799, 1.8869084145580008),
    3: (1.887751789835904, 1.8877517898941059),
    4: (1.8877891206707802, 1.887789120728982),
    5: (1.8877908418155973, 1.887790841873799),
    6: (1.887790922657953, 1.887790922716155),
    7: (1.887790926499275, 1.8877909265574766),
    8: (1.8877909266738802, 1.887790926732082),
    9: (1.8877909266738802, 1.887790926732082),
    10: (1.8877909266738802, 1.887790926732082),
}

SHORT_STEPS = 1_000
LONG_STEPS = 100_000
CENSUS_BOUND = 1_000_000
PROBE_CENSUS_BOUND = 100_000

# CPU seconds that one unit of blocks took at the commit that added
# this benchmark, on a shared 2-vCPU Xeon host.  A unit is three blocks on
# solve and point, which completes two rounds of small censuses, and one
# block on census.
UNIT_SECONDS = {"solve": 13.0, "point": 7.0, "census": 21.5}
# CPU seconds, on the same host and commit, of the requests a run makes
# whatever its length: two passes of the verify suites (about 9 s), and on
# solve also `table --kmax 10` (about 17 s).  They are paid from --seconds
# before blocks are, but a run always has at least one unit of blocks.
FIXED_SECONDS = {"solve": 26.0, "point": 9.0, "census": 9.0}
CENSUS_R = (1.5, 2.6)
# Census values are float products of at most seven local factors, each
# product rounded once, and the gap endpoints pass through one exp().
# Within this many relative ulps of an endpoint, a value inside the gap is
# one the census attains at the endpoint (n = p_m attains the upper one)
# and that reads inside only because the endpoint is not rounded outward:
# a known defect (ROADMAP 4(b)), counted apart from wrong outputs.
CENSUS_RTOL = 8 * sys.float_info.epsilon


class CheckFailed(Exception):
    """An output violates a property the benchmark checks."""


class KnownDefect(Exception):
    """An output shows a defect the ROADMAP already lists.  The request
    counts as failed, but the work it did still counts."""

    def __init__(self, message, work):
        super().__init__(message)
        self.work = work


def _log_g(k: int, r: float) -> float:
    with mpmath.workdps(30):
        return float(mpmath.log(mpmath.zeta(r) / mpmath.zeta((k + 1) * r)))


def _target(rng: random.Random, k: int, r: float) -> float:
    """A greedy target strictly below the lower bracket of log G_k(r)."""
    return rng.random() * _log_g(k, r) * (1 - 1e-9)


def _density(rng):
    k, r = rng.randint(1, 10), rng.uniform(1.0, 3.0)
    return ["density", "--k", str(k), "--r", repr(r)]


def _approximate(rng, k, r, steps):
    x = _target(rng, k, r)
    return ["approximate", "--k", str(k), "--r", repr(r), "--x", repr(x), "--steps", str(steps)]


def _short_requests(rng):
    """In every five, four density verdicts and one short greedy walk."""
    while True:
        batch = [_density(rng) for _ in range(4)]
        batch.append(_approximate(rng, rng.randint(1, 10), rng.uniform(1.0, 3.0), SHORT_STEPS))
        rng.shuffle(batch)
        yield from batch


def _solver_requests(rng):
    while True:
        batch = [
            ["eta", "--k", str(rng.randint(1, 10))],
            ["eta", "--k", str(rng.randint(1, 10))],
            ["thresholds", "--k", str(rng.randint(1, 10))],
            ["eta-limit"],
        ]
        rng.shuffle(batch)
        yield from batch


def _root_probes(rng):
    while True:
        yield ["eta-limit"]
        yield ["eta", "--k", str(rng.randint(1, 10))]


def _censuses(rng, bound):
    """Rounds of one census per k in 1..3, each r from its own third of CENSUS_R.

    Census cost and memory depend on both k and r.  Round j pairs k with
    stratum (k + j) mod 3, so every run of the same length does the same
    mix, and any three rounds in a row pair each k with each stratum once.
    The seed draws the order within a round and r within its stratum.
    """
    lo, hi = CENSUS_R
    third = (hi - lo) / 3
    for j in itertools.count():
        ks = [1, 2, 3]
        rng.shuffle(ks)
        for k in ks:
            r = lo + third * ((k + j) % 3 + rng.random())
            yield ["census", "--k", str(k), "--r", repr(r), "--bound", str(bound)]


def _long_walks(rng):
    """Rounds of one walk per k in 1..3, paired with the r strata as the
    censuses' rounds are: greedy cost per step depends on k and r."""
    lo, hi = CENSUS_R
    third = (hi - lo) / 3
    for j in itertools.count():
        for k in (1, 2, 3):
            r = lo + third * ((k + j) % 3 + rng.random())
            yield _approximate(rng, k, r, LONG_STEPS)


def _take(stream, n):
    return list(itertools.islice(stream, n))


# The three suites that `verify --suite all` runs, requested one at a time
# and spread evenly through the run, twice: the host's speed drifts by a
# third between stretches of a run, and one 5 s request would sample one
# stretch.
VERIFY_SUITES = [["verify", "--suite", s] for s in ("inequalities", "gap-lemma", "monotonicity")]
VERIFY_PASSES = 2
TABLE = ["table", "--kmax", "10"]


def plan(workload: str, seed: int, seconds: float) -> list[list[str]]:
    """The requests of one run: blocks, with the verify suites spread
    through them and, on solve, ``table --kmax 10`` in the middle.

    The blocks are what ``seconds`` leaves after FIXED_SECONDS, turned
    into whole units of work with UNIT_SECONDS, so a run does the same
    work for the same arguments on any host and at any commit.  Besides
    its focus, every block carries a small share of the request kinds the
    focus lacks, spread through the run so that each end-to-end metric
    samples the whole run rather than one stretch of it.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    short = _short_requests(rng)
    roots = _root_probes(rng)
    small_census = _censuses(rng, PROBE_CENSUS_BOUND)
    if workload == "solve":
        solver = _solver_requests(rng)

        def block():
            return _take(solver, 4) + _take(short, 35) + _take(small_census, 2)

        per_unit = 3
    elif workload == "point":

        def block():
            return _take(short, 30) + _take(roots, 2) + _take(small_census, 2)

        per_unit = 3
    else:
        big_census = _censuses(rng, CENSUS_BOUND)
        walks = _long_walks(rng)

        def block():
            requests = []
            for _ in range(3):
                requests += _take(big_census, 1) + _take(walks, 1) + _take(short, 20) + _take(roots, 2)
            return requests

        per_unit = 1
    units = max(1, round((seconds - FIXED_SECONDS[workload]) / UNIT_SECONDS[workload]))
    requests = [argv for _ in range(units * per_unit) for argv in block()]
    if workload == "solve":
        # In the middle, so that the probes around it span the whole run.
        requests.insert(len(requests) // 2, TABLE)
    spread = VERIFY_SUITES * VERIFY_PASSES
    for i, suite in reversed(list(enumerate(spread))):
        requests.insert((2 * i + 1) * len(requests) // (2 * len(spread)), suite)
    return requests


# -- output checks ---------------------------------------------------------


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _check_root(root, eps, label):
    lo, hi = root["value"]
    if root["boundary"]:
        _require(lo == hi == 2.0, f"{label}: boundary result {lo, hi} is not exactly 2")
    else:
        _require(lo <= hi and hi - lo <= eps, f"{label}: width {hi - lo} exceeds eps {eps}")
    return lo, hi


def _check_eta(root, k, eps, label):
    lo, hi = _check_root(root, eps, label)
    _require(1.0 < lo and hi < 2.0, f"{label}: eta({k}) = [{lo}, {hi}] outside (1, 2)")
    ref_lo, ref_hi = ETA_REFERENCE[k]
    _require(lo <= ref_hi and ref_lo <= hi, f"{label}: [{lo}, {hi}] misses reference eta({k})")


def _check_thresholds(thresholds, m_min, k, eps, label):
    for m in ("1", "2", "4"):
        _check_root(thresholds[m], eps, f"{label} m={m}")
    _require(m_min == (1 if k == 1 else 2), f"{label}: m_min = {m_min} at k={k}")


def _check_verdict(result, k, r):
    lo, hi = ETA_REFERENCE[k]
    verdict = result["verdict"]
    if r < lo:
        _require(verdict == "dense", f"density k={k} r={r}: {verdict} below eta = {lo}")
    elif r > hi:
        _require(verdict == "not_dense", f"density k={k} r={r}: {verdict} above eta = {hi}")


def _check_census(result, k, r):
    """Returns the gaps (m) that a value touches from inside at an endpoint."""
    values = np.asarray(result["values"], dtype=np.float64)
    g = float(mpmath.zeta(r) / mpmath.zeta((k + 1) * r))
    _require(len(values) > 0 and values[0] >= 1.0, "census: values do not start at 1")
    _require(bool(np.all(np.diff(values) > 0)), "census: values not strictly increasing")
    _require(values[-1] < g, f"census: value {values[-1]} not below G_{k}({r}) = {g}")
    touched = []
    for m, left, right in result["analytic_gaps"]:
        core = (values > left * (1 + CENSUS_RTOL)) & (values < right * (1 - CENSUS_RTOL))
        inside = int(np.count_nonzero(core))
        _require(inside == 0, f"census: {inside} values inside the certified gap m={m}")
        if np.any((values > left) & (values < right)):
            touched.append(m)
    return touched


def check(argv, envelope) -> tuple[int, int, int]:
    """Check one successful request's output envelope.

    Returns the work it delivered as (roots, integers enumerated, greedy
    steps); raises CheckFailed on any violation, and KnownDefect on a
    census value that reads inside a gap within CENSUS_RTOL of its endpoint.
    """
    command = argv[0]
    params = envelope["parameters"]
    result = envelope["result"]
    if command == "eta":
        _check_eta(result, params["k"], params["eps"], "eta")
        return 1, 0, 0
    if command == "eta-limit":
        lo, hi = _check_root(result, params["eps"], "eta-limit")
        _require(
            lo <= ETA_LIMIT + ETA_LIMIT_ROUNDING and ETA_LIMIT - ETA_LIMIT_ROUNDING <= hi,
            f"eta-limit [{lo}, {hi}] does not round to {ETA_LIMIT}",
        )
        return 1, 0, 0
    if command == "thresholds":
        _check_thresholds(result["thresholds"], result["m_min"], params["k"], params["eps"], "thresholds")
        return 3, 0, 0
    if command == "table":
        for row in result["rows"]:
            label = f"table k={row['k']}"
            _check_thresholds(row["thresholds"], row["m_min"], row["k"], params["eps"], label)
            _check_eta(row["eta"], row["k"], params["eps"], label)
        return 4 * len(result["rows"]), 0, 0
    if command == "density":
        _check_verdict(result, params["k"], params["r"])
        return 0, 0, 0
    if command == "approximate":
        _require(result["residual"] >= 0, f"approximate: residual {result['residual']} < 0")
        return 0, 0, params["steps"]
    if command == "census":
        touched = _check_census(result, params["k"], params["r"])
        work = 0, params["bound"], 0
        if touched:
            raise KnownDefect(
                f"census: a value reads inside the gap endpoint of m={touched}, "
                "which is not rounded outward (ROADMAP 4(b))",
                work,
            )
        return work
    if command == "verify":
        failed = [s["suite"] for s in result["suites"] if not s["passed"]]
        _require(not failed, f"verify: suites failed: {failed}")
        return 0, 0, 0
    raise CheckFailed(f"no check for command {command!r}")
