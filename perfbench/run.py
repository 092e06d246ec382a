"""sigma-density benchmark: one seeded workload, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 24 --trace 0

The program is imported from ./src and driven in-process through its
public entry point ``sigma_density.cli.main(argv)``, one request at a
time (closed loop, one client, one thread).  Requests write their output
with ``--out`` into a temporary directory inside the current directory,
which is removed at the end.  Times are CPU time scaled to a reference
host speed (see cpuclock).  The last line of stdout is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run first makes the untraced pass, then replays
the same requests with every layer's public functions wrapped in spans,
and reports both passes' end-to-end numbers and their difference.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

# One thread, set before numpy loads: OpenBLAS would otherwise start a
# thread per core, whose spin-wait after a call counts as CPU time of this
# process and, on 2 cores, added about half to set-up time at random.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import cpuclock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# Timed in a fresh interpreter, in scaled CPU time (see cpuclock): import
# the package and build the prime table.
SETUP_PROBE = (
    "import cpuclock\n"
    "before = cpuclock.calibration()\n"
    "start = cpuclock.clock()\n"
    "import sigma_density\n"
    "from sigma_density import primes\n"
    "primes.load_or_sieve(primes.DEFAULT_LIMIT)\n"
    "seconds = cpuclock.clock() - start\n"
    "print(cpuclock.scaled(seconds, [before, cpuclock.calibration()]), sigma_density.__file__)\n"
)
# One cheap request per code path before timing: first calls in a process
# fill mpmath's caches and cost several times a later call.
WARM_UP = (
    ["eta-limit"],
    ["eta", "--k", "2"],
    ["density", "--k", "2", "--r", "1.5"],
    ["approximate", "--k", "1", "--r", "2", "--x", "0.1", "--steps", "100"],
    ["census", "--k", "1", "--r", "2", "--bound", "1000"],
)
SOLVER_COMMANDS = ("eta", "eta-limit", "thresholds", "table")
# Wall time over CPU time of one command's requests, summed, above which
# the CPU clock is taken to miss work the program waits for (a child it
# never reaps, I/O).  Steal on a shared host alone reaches about 1.4.
MAX_WALL_PER_CPU = 2.0

# name -> unit; the order is the order of the report.
END_TO_END = {
    "setup_s": "s",
    "roots_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "verify_s": "s",
    "census_n_per_s": "1/s",
    "greedy_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    argv: list[str]
    seconds: float  # CPU time at the reference speed, see cpuclock
    cpu: float  # CPU time as measured
    wall: float
    calibration: float  # mean time of the calibration loops around and during it
    code: int | None  # exit code; None when main raised
    error: str
    path: str


@dataclass
class Verdict:
    ok: bool
    violation: bool  # output present but wrong, as opposed to a request that failed
    work: tuple[int, int, int]  # roots, integers enumerated, greedy steps
    error: str


def _program_src(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sigma_density", "__init__.py")):
        return None
    return src


def _import_cli(src):
    sys.path.insert(0, src)
    from sigma_density import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"sigma_density imported from {cli.__file__}, not from {src}")
    return cli


def measure_setup(src, repeats=SETUP_REPEATS) -> float:
    """Median over fresh interpreters of import plus prime-table time."""
    env = {k: v for k, v in os.environ.items() if k != "SIGMA_DENSITY_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join((src, os.path.dirname(os.path.abspath(__file__))))
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        seconds, path = done.stdout.split()
        if not os.path.abspath(path).startswith(src + os.sep):
            raise RuntimeError(f"set-up probe imported {path}, not the package under {src}")
        times.append(float(seconds))
    return statistics.median(times)


def execute(cli, argv, path, sampler) -> Outcome:
    """One request through the CLI entry point, timed; stderr is kept for
    the failure message."""
    sink = io.StringIO()
    error = ""
    before = cpuclock.calibration()
    first = len(sampler.loops)
    try:
        with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
            start, wall_start = cpuclock.clock(), time.perf_counter()
            try:
                code = cli.main(["--out", path, *argv])
            finally:
                last = len(sampler.loops)
                cpu = cpuclock.clock() - start
                wall = time.perf_counter() - wall_start
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed request, not a crashed benchmark
        code, error = None, f"{type(exc).__name__}: {exc}"
    if code != 0 and not error:
        lines = [line for line in sink.getvalue().splitlines() if "error" in line]
        error = lines[-1] if lines else f"exit {code}"
    inside = sampler.loops[first:last]
    loops = [before, *inside, cpuclock.calibration()]
    # The sampler's loops ran inside the request; they are not its work.
    cpu -= sum(inside)
    seconds = cpuclock.scaled(cpu, loops)
    return Outcome(argv, seconds, cpu, wall, sum(loops) / len(loops), code, error, path)


def run_all(cli, requests, out_dir, sampler) -> list[Outcome]:
    return [
        execute(cli, argv, os.path.join(out_dir, f"{i:05d}.json"), sampler) for i, argv in enumerate(requests)
    ]


def replay(cli, outcomes, out_dir, tracer, sampler) -> tuple[list[Outcome], float]:
    """The same requests again, traced; returns the outcomes and the pass's time."""
    replayed = []
    start = cpuclock.clock()
    with spans.installed(tracer):
        for index, outcome in enumerate(outcomes):
            tracer.request = index
            replayed.append(execute(cli, outcome.argv, os.path.join(out_dir, f"{index:05d}.json"), sampler))
    return replayed, cpuclock.clock() - start


def assess(outcome) -> Verdict:
    if outcome.code != 0:
        return Verdict(False, False, (0, 0, 0), outcome.error)
    try:
        with open(outcome.path) as fh:
            envelope = json.load(fh)
        return Verdict(True, False, workloads.check(outcome.argv, envelope), "")
    except workloads.KnownDefect as exc:
        return Verdict(False, False, exc.work, f"known defect: {exc}")
    except (workloads.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
        return Verdict(False, True, (0, 0, 0), f"{type(exc).__name__}: {exc}")


def _rate(outcomes, verdicts, select, index):
    chosen = [(o, v) for o, v in zip(outcomes, verdicts) if select(o.argv)]
    seconds = sum(o.seconds for o, _ in chosen)
    return sum(v.work[index] for _, v in chosen) / seconds if seconds else 0.0


def _is_short(argv):
    return argv[0] == "density" or (argv[0] == "approximate" and argv[-1] == str(workloads.SHORT_STEPS))


def end_to_end(outcomes, verdicts, setup_s, peak_rss_mb) -> dict[str, float]:
    latencies = [o.seconds for o in outcomes if _is_short(o.argv)]
    return {
        "setup_s": setup_s,
        "roots_per_s": _rate(outcomes, verdicts, lambda a: a[0] in SOLVER_COMMANDS, 0),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p95_ms": 1e3 * statistics.quantiles(latencies, n=20, method="inclusive")[18],
        "verify_s": sum(o.seconds for o in outcomes if o.argv[0] == "verify") / workloads.VERIFY_PASSES,
        "census_n_per_s": _rate(outcomes, verdicts, lambda a: a[0] == "census", 1),
        "greedy_steps_per_s": _rate(outcomes, verdicts, lambda a: a[0] == "approximate", 2),
        "peak_rss_mb": peak_rss_mb,
    }


def clock_check(outcomes) -> list[str]:
    """Per command: CPU and wall time of its requests.  Returns the
    commands whose wall time exceeds MAX_WALL_PER_CPU times their CPU time."""
    totals: dict[str, list[float]] = {}
    for o in outcomes:
        cpu_wall = totals.setdefault(o.argv[0], [0.0, 0.0])
        cpu_wall[0] += o.cpu
        cpu_wall[1] += o.wall
    print("clock " + " ".join(f"{c}={w / s:.2f}" for c, (s, w) in totals.items() if s > 0) + " (wall/cpu)")
    return [c for c, (s, w) in totals.items() if w > MAX_WALL_PER_CPU * max(s, 1e-9)]


def _environment():
    import mpmath
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _report(metrics, units):
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = _program_src(root)
    if src is None:
        print("perfbench: ./src/sigma_density not found; run from the repository root", file=sys.stderr)
        return 2
    os.environ.pop("SIGMA_DENSITY_CACHE", None)  # measure the sieve, not a cache read
    setup_s = measure_setup(src)
    cli = _import_cli(src)

    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        with cpuclock.Sampler() as sampler:
            for warm in WARM_UP:
                execute(cli, warm, os.path.join(out_dir, "warm-up.json"), sampler)
            plain_dir = os.path.join(out_dir, "plain")
            os.mkdir(plain_dir)
            requests = workloads.plan(args.workload, args.seed, args.seconds)
            outcomes = run_all(cli, requests, plain_dir, sampler)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if args.trace:
                tracer = spans.Tracer()
                traced_dir = os.path.join(out_dir, "traced")
                os.mkdir(traced_dir)
                traced, pass_s = replay(cli, outcomes, traced_dir, tracer, sampler)
        verdicts = [assess(o) for o in outcomes]
        mismatched = []
        if args.trace:
            mismatched = [
                " ".join(o.argv)
                for o, t in zip(outcomes, traced)
                if (o.code == 0) != (t.code == 0)
                or (o.code == 0 and not filecmp.cmp(o.path, t.path, shallow=False))
            ]
            output_bytes = [os.path.getsize(t.path) if t.code == 0 else 0 for t in traced]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failures = [(o, v) for o, v in zip(outcomes, verdicts) if not v.ok]
    plain = end_to_end(outcomes, verdicts, setup_s, peak_rss_mb)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in _environment().items()))
    print(
        f"requests attempted={len(outcomes)} failed={len(failures)} "
        f"failed_ratio={len(failures) / len(outcomes):.4f} "
        f"request_s={sum(o.seconds for o in outcomes):.3f} "
        f"request_cpu_s={sum(o.cpu for o in outcomes):.3f} "
        f"request_wall_s={sum(o.wall for o in outcomes):.3f}"
    )
    calibrations = [o.calibration for o in outcomes]
    print(
        f"host speed: calibration loop median {1e3 * statistics.median(calibrations):.3f} ms, "
        f"range {1e3 * min(calibrations):.3f}-{1e3 * max(calibrations):.3f} ms; "
        f"times are scaled to {1e3 * cpuclock.REFERENCE_S:.3f} ms"
    )
    for outcome, verdict in failures:
        kind = "WRONG OUTPUT" if verdict.violation else "failed"
        print(f"  {kind}: {' '.join(outcome.argv)}: {verdict.error}")
    for line in mismatched:
        print(f"  WRONG OUTPUT: traced output differs from untraced: {line}")
    waited = clock_check(outcomes + (traced if args.trace else []))
    for command in waited:
        print(f"  CLOCK: {command} requests took over {MAX_WALL_PER_CPU:g}x their CPU time in wall time")
    # A run whose clock misses the program's work has no valid figures.
    correct = not any(v.violation for v in verdicts) and not mismatched and not waited

    if not args.trace:
        for name, value in plain.items():
            print(f"{name:<20} {value:14.6f} {END_TO_END[name]}")
        metrics = _report(plain, END_TO_END)
    else:
        # Outputs are byte-identical across the passes, so they delivered the same work.
        with_spans = end_to_end(traced, verdicts, setup_s, peak_rss_mb)
        plain_time = sum(o.seconds for o in outcomes)
        traced_time = sum(o.seconds for o in traced)
        drift = traced_time / plain_time - 1
        cost = spans.span_cost()
        overhead = cost * len(tracer.spans) / sum(o.cpu for o in traced)
        print(f"{'end-to-end':<20} {'untraced':>14} {'traced':>14} {'difference':>11}")
        for name, value in plain.items():
            if name in ("setup_s", "peak_rss_mb"):
                print(f"{name:<20} {value:14.6f} {'(not traced)':>14}")
                continue
            diff = with_spans[name] / value - 1 if value else 0.0
            print(f"{name:<20} {value:14.6f} {with_spans[name]:14.6f} {diff:+10.2%} {END_TO_END[name]}")
        layers = spans.layer_metrics(tracer.spans, output_bytes, pass_s, overhead)
        print(
            f"traced minus untraced request time {drift:+.2%}; the span wrappers cost {overhead:.3%} "
            f"of request time ({len(tracer.spans)} spans at {cost * 1e6:.2f} us each), and the rest "
            f"is the replay's own difference from the first pass, not tracing"
        )
        print(
            f"spans cover {layers['trace.span_coverage']:.2%} of the traced pass's time, "
            f"library layers {layers['trace.library_coverage']:.2%} of request time"
        )
        for name, value in layers.items():
            print(f"{name:<42} {value:14.6f} {spans.PER_LAYER[name][0]}")
        metrics = _report(layers, {n: u for n, (u, _) in spans.PER_LAYER.items()})

    print(
        json.dumps(
            {"correct": correct, "attempted": len(outcomes), "failed": len(failures), "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
