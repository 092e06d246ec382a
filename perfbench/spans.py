"""In-memory span tracing of the program's public functions, and the
per-layer metrics computed from the spans.

Tracing wraps each function in ``TRACED`` and rebinds every name in the
``sigma_density`` modules that refers to it.  Modules that did
``from .zeta import zeta_iv`` hold their own reference, so patching only
``zeta.zeta_iv`` would miss their calls.  The originals are restored when
the ``installed`` context exits.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from contextlib import contextmanager

from cpuclock import clock

TRACED = (
    "primes.load_or_sieve",
    "primes.verify_gap_lemma",
    "zeta.zeta_iv",
    "zeta.log_g_iv",
    "density.t_func",
    "density.density_report",
    "density.check_inequalities",
    "solver.r_threshold",
    "solver.eta",
    "solver.m_selector",
    "solver.eta_limit",
    "explorer.range_census",
    "explorer.analytic_gap_scan",
    "explorer.greedy_approximate",
    "cli.main",
)

_ROOT_SOLVERS = ("solver.r_threshold", "solver.eta", "solver.eta_limit")

# Span fields, stored as lists for low overhead.
NAME, START, END, PARENT, REQUEST, INFO = range(6)


class Tracer:
    """Collects spans [name, start, end, parent index, request id, info].

    ``request`` is set by the caller before each request; spans opened
    while it is set carry it.  Single-threaded by design: the benchmark
    runs one request at a time.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []

    def wrap(self, name, fn, describe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if describe is not None:
                span[INFO] = describe(args, kwargs, result)
            return result

        return traced


def span_cost(calls: int = 20_000) -> float:
    """CPU seconds one span adds to a call, measured on a no-op function."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    start = clock()
    for _ in range(calls):
        noop()
    plain = clock() - start
    start = clock()
    for _ in range(calls):
        traced()
    return max(0.0, (clock() - start - plain) / calls)


def _root_info(fn):
    """Describe a RootResult together with the call's (k, m, eps) key."""
    signature = inspect.signature(fn)

    def describe(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = tuple(v for n, v in bound.arguments.items() if n != "table")
        return {
            "key": key,
            "eps": bound.arguments["eps"],
            "iterations": result.iterations,
            "width": result.value.hi - result.value.lo,
            "boundary": result.boundary,
        }

    return describe


def _census_info(args, kwargs, result):
    return {"distinct_values": len(result.values)}


def _describer(name, fn):
    if name in _ROOT_SOLVERS:
        return _root_info(fn)
    if name == "explorer.range_census":
        return _census_info
    return None


@contextmanager
def installed(tracer: Tracer):
    """Rebind every traced function, in every sigma_density module that
    holds a reference to it, to its traced wrapper."""
    package = "sigma_density"
    modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
    restore = []
    try:
        for qualified in TRACED:
            module_name, attr = qualified.rsplit(".", 1)
            original = getattr(sys.modules[f"{package}.{module_name}"], attr)
            wrapper = tracer.wrap(qualified, original, _describer(qualified, original))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        restore.append((module, name, original))
        yield tracer
    finally:
        for module, name, original in reversed(restore):
            setattr(module, name, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span[START]
        for child in sorted(children[index], key=lambda i: spans[i][START]):
            start = max(spans[child][START], reach)
            end = min(spans[child][END], span[END])
            if end > start:
                covered += end - start
                reach = end
        result.append(span[END] - span[START] - covered)
    return result


# name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "primes.load_or_sieve.calls": ("calls/req", "lower"),
    "primes.load_or_sieve.ms_per_call": ("ms", "lower"),
    "primes.verify_gap_lemma.ms": ("ms", "lower"),
    "zeta.zeta_iv.calls": ("calls/req", "lower"),
    "zeta.zeta_iv.self_ms_per_call": ("ms", "lower"),
    "zeta.zeta_iv.self_share": ("ratio", "lower"),
    "zeta.log_g_iv.calls": ("calls/req", "lower"),
    "density.t_func.calls": ("calls/req", "lower"),
    "density.t_func.self_ms_per_call": ("ms", "lower"),
    "density.density_report.ms_per_call": ("ms", "lower"),
    "density.check_inequalities.ms": ("ms", "lower"),
    "solver.r_threshold.ms_per_call": ("ms", "lower"),
    "solver.eta.ms_per_call": ("ms", "lower"),
    "solver.m_selector.ms_per_call": ("ms", "lower"),
    "solver.eta_limit.ms": ("ms", "lower"),
    "solver.iterations_per_root": ("count", "lower"),
    "solver.zeta_calls_per_root": ("count", "lower"),
    "solver.r_threshold.useful_ratio": ("ratio", "higher"),
    "solver.width_ratio": ("ratio", "lower"),
    "explorer.range_census.self_s": ("s", "lower"),
    "explorer.analytic_gap_scan.ms": ("ms", "lower"),
    "explorer.census.distinct_values": ("count", "higher"),
    "explorer.greedy_approximate.ms_per_call": ("ms", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.span_coverage": ("ratio", "higher"),
    "trace.library_coverage": ("ratio", "higher"),
}


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, output_bytes, pass_s, overhead_ratio) -> dict[str, float]:
    """Per-layer metrics from one traced pass.

    ``output_bytes`` lists the size of each request's output, ``pass_s``
    is the pass's time and ``overhead_ratio`` the share of request time
    that the span wrappers themselves cost.  A metric of a layer
    that did no work reads 0.  Times named ``.ms`` or ``.ms_per_call`` are
    inclusive per-call durations; ``self_`` times exclude traced children.
    """
    own = self_times(spans)
    durations: dict[str, list[float]] = {}
    selfs: dict[str, list[float]] = {}
    for span, self_time in zip(spans, own):
        durations.setdefault(span[NAME], []).append(span[END] - span[START])
        selfs.setdefault(span[NAME], []).append(self_time)

    requests = len(durations.get("cli.main", ())) or 1
    request_time = sum(durations.get("cli.main", ())) or 1.0

    def calls(name):
        return len(durations.get(name, ())) / requests

    def ms(name):
        return 1e3 * _mean(durations.get(name, ()))

    def self_ms(name):
        return 1e3 * _mean(selfs.get(name, ()))

    # A span is under a solver when any ancestor is a root-solving call.
    under_solver = [False] * len(spans)
    for index, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            under_solver[index] = under_solver[parent] or spans[parent][NAME] in _ROOT_SOLVERS
    roots = [s[INFO] for s in spans if s[NAME] in _ROOT_SOLVERS and s[INFO] is not None]
    zeta_in_solver = sum(
        1 for s, inside in zip(spans, under_solver) if inside and s[NAME] == "zeta.zeta_iv"
    )
    keys_by_request: dict[object, list] = {}
    for s in spans:
        if s[NAME] == "solver.r_threshold" and s[INFO] is not None:
            keys_by_request.setdefault(s[REQUEST], []).append(s[INFO]["key"])
    threshold_calls = sum(len(keys) for keys in keys_by_request.values())
    distinct = sum(len(set(keys)) for keys in keys_by_request.values())
    widths = [r["width"] / r["eps"] for r in roots if not r["boundary"]]
    census = [s[INFO]["distinct_values"] for s in spans if s[NAME] == "explorer.range_census" and s[INFO]]
    cli_self = sum(selfs.get("cli.main", ()))

    return {
        "primes.load_or_sieve.calls": calls("primes.load_or_sieve"),
        "primes.load_or_sieve.ms_per_call": ms("primes.load_or_sieve"),
        "primes.verify_gap_lemma.ms": ms("primes.verify_gap_lemma"),
        "zeta.zeta_iv.calls": calls("zeta.zeta_iv"),
        "zeta.zeta_iv.self_ms_per_call": self_ms("zeta.zeta_iv"),
        "zeta.zeta_iv.self_share": sum(selfs.get("zeta.zeta_iv", ())) / request_time,
        "zeta.log_g_iv.calls": calls("zeta.log_g_iv"),
        "density.t_func.calls": calls("density.t_func"),
        "density.t_func.self_ms_per_call": self_ms("density.t_func"),
        "density.density_report.ms_per_call": ms("density.density_report"),
        "density.check_inequalities.ms": ms("density.check_inequalities"),
        "solver.r_threshold.ms_per_call": ms("solver.r_threshold"),
        "solver.eta.ms_per_call": ms("solver.eta"),
        "solver.m_selector.ms_per_call": ms("solver.m_selector"),
        "solver.eta_limit.ms": ms("solver.eta_limit"),
        "solver.iterations_per_root": _mean([r["iterations"] for r in roots]),
        "solver.zeta_calls_per_root": zeta_in_solver / len(roots) if roots else 0.0,
        "solver.r_threshold.useful_ratio": distinct / threshold_calls if threshold_calls else 0.0,
        "solver.width_ratio": statistics.median(widths) if widths else 0.0,
        "explorer.range_census.self_s": _mean(selfs.get("explorer.range_census", ())),
        "explorer.analytic_gap_scan.ms": ms("explorer.analytic_gap_scan"),
        "explorer.census.distinct_values": _mean(census),
        "explorer.greedy_approximate.ms_per_call": ms("explorer.greedy_approximate"),
        "cli.main.self_s": cli_self / requests,
        "cli.output_bytes": _mean(output_bytes),
        "trace.overhead_ratio": overhead_ratio,
        "trace.span_coverage": request_time / pass_s if pass_s > 0 else 0.0,
        "trace.library_coverage": 1.0 - cli_self / request_time,
    }
