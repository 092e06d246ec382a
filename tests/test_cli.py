import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import first_difference
from sigma_density import cli, density, explorer, primes, solver
from sigma_density.brackets import Bracket

def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_eta_limit_contains_published_value(capsys):
    code, envelope, _ = run_json(capsys, "eta-limit")
    assert code == 0
    lo, hi = envelope["result"]["value"]
    assert lo <= 1.8877909 <= hi or abs(0.5 * (lo + hi) - 1.8877909) < 1e-6
    assert envelope["command"] == "eta-limit"
    assert envelope["provenance"]["prime_limit"] == primes.DEFAULT_LIMIT
    assert "value" in envelope["brackets"]


def test_thresholds_selector(capsys):
    code, envelope, _ = run_json(capsys, "thresholds", "--k", "3")
    assert code == 0
    assert envelope["result"]["m_min"] == 2
    assert envelope["result"]["thresholds"]["4"]["boundary"] is True


def test_tied_thresholds_are_solved_once(capsys, monkeypatch):
    # R_1(1) and R_1(2) lie 6e-4 apart, so their 1e-2 brackets overlap;
    # m_min is the proved rule, and no threshold is solved again
    calls = []
    r_threshold = solver.r_threshold

    def spy(*args):
        calls.append(args[1:])
        return r_threshold(*args)

    monkeypatch.setattr(solver, "r_threshold", spy)
    code, envelope, _ = run_json(capsys, "thresholds", "--k", "1", "--eps", "1e-2")
    assert code == 0
    assert calls == [(1, m, 1e-2) for m in (1, 2, 4)]
    thresholds = envelope["result"]["thresholds"]
    assert thresholds["2"]["value"][0] <= thresholds["1"]["value"][1]
    assert envelope["result"]["m_min"] == 1


def test_density_not_dense(capsys):
    code, envelope, _ = run_json(capsys, "density", "--k", "1", "--r", "2")
    assert code == 0
    assert envelope["result"]["verdict"] == "not_dense"


def test_density_dense(capsys):
    code, envelope, _ = run_json(capsys, "density", "--k", "1", "--r", "1.5")
    assert code == 0
    assert envelope["result"]["verdict"] == "dense"


def test_approximate(capsys):
    code, envelope, _ = run_json(
        capsys, "approximate", "--k", "1", "--r", "1.5", "--x", "0.3", "--steps", "50"
    )
    assert code == 0
    assert envelope["result"]["residual"] >= 0


@pytest.mark.parametrize("r, steps", [("1e6", 10), ("4", 3000)])
def test_approximate_to_zero(capsys, r, steps):
    # x = 0 is below log G_k(r) at every r > 1, also where log G's bracket
    # straddles 0 (r = 1e6), and its walk takes exponent 0 at every prime,
    # also where the float log of a local factor reads 0.0 (both r).
    argv = ["approximate", "--k", "1", "--r", r, "--x", "0", "--steps", str(steps)]
    code, envelope, err = run_json(capsys, *argv)
    assert code == 0, err
    assert envelope["result"]["alphas"] == [0] * steps


def test_census_json_and_tsv_agree(capsys):
    code, envelope, _ = run_json(
        capsys, "census", "--k", "1", "--r", "2", "--bound", "500"
    )
    assert code == 0
    json_values = envelope["result"]["values"]
    code, out, _ = run(
        capsys, "--format", "tsv", "census", "--k", "1", "--r", "2", "--bound", "500"
    )
    assert code == 0
    tsv_values = [float(line) for line in out.strip().splitlines()]
    assert tsv_values == json_values


def test_determinism(capsys):
    argv = ["thresholds", "--k", "2"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_tsv_same_numbers_as_json(capsys):
    code, envelope, _ = run_json(capsys, "eta", "--k", "1", "--eps", "1e-8")
    code2, out, _ = run(
        capsys, "--format", "tsv", "eta", "--k", "1", "--eps", "1e-8"
    )
    assert code == code2 == 0
    tsv = dict(line.split("\t") for line in out.strip().splitlines())
    assert float(tsv["result.value[0]"]) == envelope["result"]["value"][0]
    assert float(tsv["result.value[1]"]) == envelope["result"]["value"][1]


def test_verify_gap_lemma(capsys):
    code, envelope, err = run_json(capsys, "verify", "--suite", "gap-lemma")
    assert code == 0
    assert "PASS gap-lemma" in err
    assert envelope["result"]["suites"][0]["passed"] is True


def test_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "density", "--k", "1", "--r", "0.5")
    assert code == 1
    assert "error" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--bogus-flag", "eta-limit"])
    assert excinfo.value.code == 64
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["eta", "--k", "notanumber"])
    assert excinfo.value.code == 64
    # the prime table is sized from the request, not by an option
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--prime-limit", "5", "eta", "--k", "1"])
    assert excinfo.value.code == 64


def _outcome(capsys, argv):
    """Exit code, stdout and stderr of one request, usage errors included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_request_of_a_process(capsys):
    requests = [
        ["eta", "--k", "notanumber"],
        ["density", "--k", "2", "--r", "1.9"],
        ["--format", "tsv", "census", "--k", "1", "--r", "1.5", "--bound", "1000"],
        ["eta", "--k", "3"],
    ]
    fresh = []
    for argv in requests:
        cli.build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    cli.build_parser.cache_clear()
    shared = [_outcome(capsys, argv) for argv in requests]
    assert cli.build_parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [cli.EXIT_USAGE, 0, 0, 0]


def test_parser_defaults_do_not_leak_between_requests(tmp_path, capsys):
    target = tmp_path / "first.tsv"
    argv = ["--format", "tsv", "--out", str(target), "eta", "--k", "1", "--eps", "1e-6"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == ""
    first = dict(line.split("\t") for line in target.read_text().splitlines())
    assert first["parameters.eps"] == "1e-06"
    code, envelope, _ = run_json(capsys, "eta", "--k", "1")
    assert code == 0
    assert envelope["parameters"]["eps"] == solver.DEFAULT_EPS
    args = cli.build_parser().parse_args(["density", "--k", "1", "--r", "2"])
    assert (args.format, args.out) == ("json", None)
    assert not hasattr(args, "eps")


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--r", "inf", "--k", "1"],
        ["approximate", "--k", "1", "--r", "1.5", "--x", "nan", "--steps", "10"],
        ["census", "--k", "1", "--r", "2", "--bound", "100", "--resolution", "inf"],
        ["--prime-limit", "5", "eta", "--k", "1"],
    ],
)
def test_bad_input_is_a_typed_error(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (1, 64)
    assert "error" in err and "Traceback" not in err


def test_verify_reports_covers(capsys):
    code, envelope, err = run_json(capsys, "verify", "--suite", "all")
    assert code == 0
    assert envelope["parameters"] == {"suite": "all"}
    suites = envelope["result"]["suites"]
    assert [s["suite"] for s in suites] == ["gap-lemma", "inequalities", "monotonicity", "selector"]
    for suite in suites[1:]:
        assert suite["passed"] is True and suite["margin"] > 0
        for check in suite["report"]["checks"]:
            assert check["cells"] >= 1 and check["min_slack"] > 0


def test_a_failed_suite_prints_its_envelope_and_exits_2(capsys, monkeypatch):
    failed = density.InequalityCheck("claim", "T > 0", 1.5, 1.5, 0, -1.0, False)
    monkeypatch.setattr(density, "check_selector", lambda table: density.InequalityReport((failed,)))
    code, envelope, err = run_json(capsys, "verify", "--suite", "selector")
    assert code == cli.EXIT_VERIFY_FAILED
    assert envelope["parameters"] == {"suite": "selector"}
    assert envelope["provenance"]["tolerances"] == {}
    (suite,) = envelope["result"]["suites"]
    assert suite["suite"] == "selector" and suite["passed"] is False and suite["margin"] == -1.0
    assert "FAIL selector (margin -1)" in err


def _exit_code_and_peak(capsys, argv):
    tracemalloc.start()
    try:
        code = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err
    return code, peak


def test_walk_above_capacity_allocates_nothing_large(capsys):
    argv = ["approximate", "--k", "1000000", "--r", "1.5", "--x", "0.3", "--steps", "1000"]
    code, peak = _exit_code_and_peak(capsys, argv)
    assert code == 1
    assert peak < 10_000_000


def test_walk_above_capacity_sieves_nothing_large(capsys):
    # the capacity check comes before the slice that would sieve 3.4e7 integers
    argv = ["approximate", "--k", "1", "--r", "1.5", "--x", "0.1", "--steps", "2500000"]
    code, peak = _exit_code_and_peak(capsys, argv)
    assert code == 1
    assert peak < 10_000_000


def test_walk_to_a_target_past_log_g_sieves_nothing(capsys, sieve_bounds):
    # the table is sized to the bound on p_1999999, and the target is
    # checked before the slice sieves the walk's primes
    argv = ["approximate", "--k", "1", "--r", "1.5", "--x", "100", "--steps", "1999999"]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "sigma-density: error: target 100.0 is not below log G_1(1.5) = 0.776225727339294\n"
    assert sieve_bounds == []
    assert peak < 10_000_000


def test_a_walk_past_the_default_table_gets_a_table_that_holds_it(capsys):
    argv = ["approximate", "--k", "1", "--r", "2", "--x", "0.3", "--steps", "150000"]
    code, envelope, err = run_json(capsys, *argv)
    assert code == 0, err
    assert len(envelope["result"]["alphas"]) == 150000
    assert envelope["provenance"]["prime_limit"] == math.ceil(primes.nth_prime_bound(150000)) == 2159471


def test_a_walk_far_past_the_capacity_is_a_typed_error(capsys):
    # the table is sized at the capacity's longest walk, not at 10**35 steps
    argv = ["approximate", "--k", "1", "--r", "2", "--x", "0.3", "--steps", str(10**35)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err == f"sigma-density: error: (k + 1) * steps = {2 * 10**35} exceeds the walk capacity 4000000\n"


def test_every_walk_the_capacity_admits_fits_the_sieve():
    # k >= 1, so no walk the capacity admits takes more steps than this
    assert primes.nth_prime_bound(explorer.GREEDY_MAX_ENTRIES // 2) <= primes.SIEVE_MAX_LIMIT


def test_census_above_capacity_allocates_nothing_large(capsys):
    argv = ["census", "--k", "1", "--r", "2", "--bound", str(explorer.CENSUS_MAX_BOUND + 1)]
    code, peak = _exit_code_and_peak(capsys, argv)
    assert code == 1
    assert peak < 10_000_000


def test_census_cost_is_bounded_by_the_bound_not_k(capsys):
    # 2^13 <= 10000 < 2^14: no n <= 10000 has an exponent above 13, so
    # every k >= 13 admits the same n.
    argv = ["census", "--r", "2", "--bound", "10000", "--k"]
    _, small, _ = run_json(capsys, *argv, "14")
    tracemalloc.start()
    try:
        code = cli.main([*argv, "1000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    huge = json.loads(capsys.readouterr().out)
    assert code == 0
    assert huge["result"]["values"] == small["result"]["values"]
    assert peak < 20_000_000


SIEVED_ON_DEMAND = [
    ["density", "--k", "2", "--r", "1.7"],
    ["eta", "--k", "3"],
    ["eta-limit"],
    ["thresholds", "--k", "2"],
]


@pytest.mark.parametrize("argv", SIEVED_ON_DEMAND, ids=" ".join)
def test_a_request_sieves_only_the_primes_it_reads(capsys, sieve_bounds, argv):
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert sum(sieve_bounds) <= 4096, sieve_bounds


def test_census_gap_too_narrow_for_doubles_is_an_error(capsys):
    # at r = 40 the gaps of levels 2..9 would print with lo > hi
    code, out, err = run(capsys, "census", "--k", "2", "--r", "40", "--bound", "100000")
    assert code == 1
    assert out == ""
    assert err == "sigma-density: error: the certified gap at level m = 2 is too narrow for doubles at r = 40.0\n"


@pytest.mark.parametrize("r", ["195", "1000"])
def test_census_where_every_value_rounds_to_one_is_an_error(capsys, r):
    code, out, err = run(capsys, "census", "--k", "1", "--r", r, "--bound", "100")
    assert code == 1
    assert out == ""
    assert err == f"sigma-density: error: every census value rounds to 1.0 at r = {float(r)}\n"


# Run in a fresh interpreter: ``import sigma_density`` and, given arguments,
# the CLI as ``python -m sigma_density.cli`` runs it; then report the exit
# code and whether numpy was ever imported.
NUMPY_PROBE = """
import runpy, sys
import sigma_density
code = 0
if sys.argv[1:]:
    try:
        runpy.run_module("sigma_density.cli", run_name="__main__")
    except SystemExit as stop:
        code = stop.code
print(code, "numpy" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["density", "--k", "1", "--r", "2"],
        ["eta", "--k", "3"],
        ["eta-limit"],
        ["thresholds", "--k", "3"],
        ["table", "--kmax", "3"],
    ],
    ids=lambda argv: " ".join(argv) or "import",
)
def test_point_requests_never_import_numpy(argv):
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == "0 False\n"


# As NUMPY_PROBE, for orjson, which only the array writer imports.
ORJSON_PROBE = NUMPY_PROBE.replace('"numpy" in sys.modules', '"orjson" in sys.modules')


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["density", "--k", "1", "--r", "2"], False),
        (["eta", "--k", "3"], False),
        (["verify", "--suite", "gap-lemma"], False),
        (["approximate", "--k", "1", "--r", "2", "--x", "0.2", "--steps", "100"], True),
    ],
    ids=lambda arg: " ".join(arg) if isinstance(arg, list) else str(arg),
)
def test_only_array_output_imports_orjson(argv, loaded):
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", ORJSON_PROBE, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    # The last line: verify's PASS line comes first.
    assert done.stderr.splitlines()[-1] == f"0 {loaded}"


# Prints mpmath.iv.prec before the package is imported and after the
# verify suites ran, in a fresh interpreter.
IV_PREC_PROBE = """
import contextlib, io, json
import mpmath
before = mpmath.iv.prec
import sigma_density.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = sigma_density.cli.main(["verify", "--suite", "all"])
suites = json.loads(out.getvalue())["result"]["suites"]
print(code, len(suites), all(s["passed"] for s in suites), before, mpmath.iv.prec)
"""


def test_the_library_leaves_the_host_mpmath_iv_precision_alone():
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", IV_PREC_PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 4 True 53 53\n"


# Each writes far more than a pipe buffers, so the write is still going on
# when the reader closes its end.  Unbuffered, stdout writes through to the
# raw file, which takes a short write without an error: a TSV envelope is
# one piece, which used to end cut short with exit 0.
CENSUS = ["census", "--k", "1", "--r", "2", "--bound", "100000"]
TSV_WALK = ["--format", "tsv", "approximate", "--k", "1", "--r", "1.5", "--x", "0.3", "--steps", "100000"]
# Each writes less than stdout buffers, so a buffered stdout holds all of it
# until a flush, which used to come only at the interpreter's exit, outside
# main's handler: exit 120.  The reader closes its end before the write.
ETA = ["eta", "--k", "3"]
DENSITY = ["density", "--k", "1", "--r", "1.5"]
# argparse writes the help and then raises SystemExit(0); the help goes
# through the CLI's writer, as a command's output does.
HELP = ["--help"]
ETA_HELP = ["eta", "--help"]
DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


def _cli(argv, unbuffered, **kwargs):
    """The CLI in a fresh process with stdout buffered or unbuffered,
    whatever PYTHONUNBUFFERED the tests run with."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "sigma_density.cli", *argv], env=env, **kwargs)


@pytest.mark.parametrize(
    "unbuffered, argv",
    [(False, CENSUS), (True, CENSUS), (False, TSV_WALK), (True, TSV_WALK)]
    + [(False, ETA), (True, ETA), (False, DENSITY), (True, DENSITY)]
    + [(False, HELP), (True, HELP), (False, ETA_HELP), (True, ETA_HELP)],
    ids=["buffered", "unbuffered", "tsv-buffered", "tsv-unbuffered"]
    + ["eta-buffered", "eta-unbuffered", "density-buffered", "density-unbuffered"]
    + ["help-buffered", "help-unbuffered", "eta-help-buffered", "eta-help-unbuffered"],
)
def test_closed_pipe_exits_without_a_traceback(unbuffered, argv):
    with _cli(argv, unbuffered, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        if argv in (CENSUS, TSV_WALK):
            assert proc.stdout.readline() in (b"{\n", b"command\tapproximate\n")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert err == ""
    assert code == 1


@DEV_FULL
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [ETA, CENSUS, HELP, ETA_HELP], ids=["eta", "census", "help", "eta-help"])
def test_a_full_stdout_is_an_error(argv, unbuffered):
    with open("/dev/full", "wb") as full, _cli(argv, unbuffered, stdout=full, stderr=subprocess.PIPE) as proc:
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert err == f"sigma-density: error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
    assert code == 1


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_is_an_error(unbuffered):
    # With file descriptor 1 closed, the interpreter sets sys.stdout to None.
    with _cli(ETA, unbuffered, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1)) as proc:
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert err == f"sigma-density: error: cannot write stdout: {os.strerror(errno.EBADF)}\n"
    assert code == 1


class _Trickle(io.RawIOBase):
    """A raw file that takes at most 7 bytes a write."""

    def __init__(self):
        self.taken = bytearray()

    def writable(self):
        return True

    def write(self, data):
        self.taken += data[:7]
        return min(len(data), 7)

    def getvalue(self):
        return bytes(self.taken)


@pytest.mark.parametrize("binary", [_Trickle, io.BytesIO], ids=["raw-7-bytes", "buffered"])
def test_stdout_takes_the_bytes_of_out(tmp_path, capsys, monkeypatch, binary):
    argv = ["approximate", "--k", "2", "--r", "1.9", "--x", "0.5", "--steps", "1000"]
    target = tmp_path / "out.json"
    assert run(capsys, "--out", str(target), *argv) == (0, "", "")
    layer = binary()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(layer, encoding="ascii"))
    assert cli.main(argv) == 0
    assert layer.getvalue() == target.read_bytes()


@DEV_FULL
def test_a_full_out_is_an_error(capsys):
    code, out, err = run(capsys, "--out", "/dev/full", "eta", "--k", "3")
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err == f"sigma-density: error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "--out", str(target), "eta-limit", "--eps", "1e-6")
    assert code == 0
    assert out == ""
    envelope = json.loads(target.read_text())
    assert envelope["command"] == "eta-limit"


UNWRITABLE_OUT = pytest.mark.parametrize(
    "target, reason",
    [
        ("missing/result.json", "No such file or directory"),
        (".", "Is a directory"),
        ("file/result.json", "Not a directory"),
    ],
    ids=["missing-dir", "a-dir", "under-a-file"],
)


@UNWRITABLE_OUT
def test_unwritable_out_is_an_error(tmp_path, capsys, target, reason):
    (tmp_path / "file").write_text("")
    path = str(tmp_path / target)
    code, out, err = run(capsys, "--out", path, "eta-limit", "--eps", "1e-6")
    assert code == cli.EXIT_ERROR
    assert out == ""
    assert err == f"sigma-density: error: cannot write {path}: {reason}\n"


@UNWRITABLE_OUT
def test_unwritable_out_fails_before_the_request_runs(tmp_path, capsys, monkeypatch, target, reason):
    def no_request(*args, **kwargs):
        raise AssertionError("the request must not run")

    monkeypatch.setattr(primes, "load_or_sieve", no_request)
    monkeypatch.setattr(explorer, "range_census", no_request)
    (tmp_path / "file").write_text("")
    path = str(tmp_path / target)
    argv = ["--out", path, "census", "--k", "1", "--r", "2", "--bound", "3000000"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err == f"sigma-density: error: cannot write {path}: {reason}\n"


def test_a_failed_request_leaves_an_existing_out_untouched(tmp_path, capsys):
    target = tmp_path / "result.json"
    target.write_text("earlier output\n")
    code, out, err = run(capsys, "--out", str(target), "eta", "--k", "0")
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err.startswith("sigma-density: error: k must be")
    assert target.read_text() == "earlier output\n"


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize("resolution", ["0", "-1"])
def test_a_census_at_a_nonpositive_resolution_leaves_an_existing_out_untouched(tmp_path, capsys, fmt, resolution):
    target = tmp_path / "result.txt"
    target.write_text("earlier output\n")
    argv = ["--format", fmt, "--out", str(target), "census", "--k", "1", "--r", "2", "--bound", "100"]
    code, out, err = run(capsys, *argv, "--resolution", resolution)
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err == f"sigma-density: error: resolution must be positive, got {float(resolution)}\n"
    assert target.read_text() == "earlier output\n"


@pytest.mark.parametrize(
    "payload",
    [
        {"values": np.r_[np.linspace(1.0, 2.0, 3 * cli.JOIN_BLOCK), math.nan]},
        {"values": [*np.linspace(1.0, 2.0, 3 * cli.JOIN_BLOCK).tolist(), math.inf]},
        {"gaps": [(1.0, 1.5, 0.5)] * cli.JOIN_BLOCK + [(2.0, math.nan, 0.5)]},
        {"values": np.linspace(1.0, 2.0, 3 * cli.JOIN_BLOCK), "after": math.nan},
    ],
    ids=["array", "list", "rows", "skeleton"],
)
def test_a_refused_value_leaves_an_existing_out_untouched(tmp_path, payload):
    # The output is streamed, so every refusal must come before the file
    # is opened, however late in the arrays the value lies.
    target = tmp_path / "result.json"
    target.write_text("earlier output\n")
    args = cli.build_parser().parse_args(["--out", str(target), "eta-limit"])
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._emit(cli._convert(payload, "", {}), args)
    assert target.read_text() == "earlier output\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--k", "3", "--r", "1.6", "--bound", "200000"],
        ["approximate", "--k", "2", "--r", "2.4", "--x", "0.3", "--steps", "100000"],
    ],
    ids=" ".join,
)
def test_output_is_written_in_memory_bounded_by_a_block(tmp_path, monkeypatch, argv):
    # The writer holds a block of the output at a time, a block's text
    # and the float writer's arrays, never the whole text: its peak is
    # below the bytes it writes, where holding the text took about twice
    # them.
    target = tmp_path / "result.json"
    requests = []
    monkeypatch.setattr(cli, "_emit", lambda envelope, args: requests.append((envelope, args)))
    assert cli.main(["--out", str(target), *argv]) == 0
    monkeypatch.undo()
    envelope, args = requests[0]
    cli._emit(envelope, args)  # builds the writer's tables, once a process
    tracemalloc.start()
    try:
        cli._emit(envelope, args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < target.stat().st_size


def _readme_cli_commands():
    """The argv of each line of the sh block under README's ## CLI."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "sigma-density"
            commands.append(words[1:])
    return commands


@pytest.mark.parametrize("argv", _readme_cli_commands(), ids=" ".join)
def test_readme_cli_commands_succeed(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert "Traceback" not in err


# Strings for float options: the bad values the CLI must reject or report,
# and ordinary ones, up to magnitude 1e6.  T's cost grows with neither r
# nor k: zeta takes its direct sum above s of about 46, and T reads
# p^-(k+1)r from zeta((k+1)r)'s table rather than raising p^-r to k + 1.
# So neither is kept small, and --k is drawn up to 10**4000.
FLOATS = st.sampled_from(
    ["nan", "inf", "-inf", "-1", "0", "1e-20", "1e-14", "1e-9", "0.3", "1", "1.0001", "1.5", "2", "1e6"]
) | st.one_of(st.floats(1.0001, 3), st.floats(-1e6, 1e6)).map(repr)
# Strings for the other options; FLOATS for any option not listed.  --kmax
# is small, or above the table's capacity, where it must fail before any
# solve: a table solves every row up to it.
VALUES = {
    "--k": (st.integers(-2, 1000) | st.integers(1001, 10**4000)).map(str),
    "--kmax": (st.integers(-1, 3) | st.integers(101, 10**9)).map(str),
    "--steps": (st.integers(-1, 1000) | st.just(10**35)).map(str),
    "--bound": st.integers(-1, 10_000).map(str),
    "--suite": st.sampled_from(["gap-lemma", "inequalities", "monotonicity", "selector", "all"]),
}
COMMANDS = {
    "eta": ("--k", "--eps"),
    "eta-limit": ("--eps",),
    "thresholds": ("--k", "--eps"),
    "table": ("--kmax", "--eps"),
    "density": ("--k", "--r"),
    "approximate": ("--k", "--r", "--x", "--steps"),
    "census": ("--k", "--r", "--bound", "--resolution"),
    "verify": ("--suite",),
}


@st.composite
def cli_argv(draw):
    argv = []
    if draw(st.booleans()):
        argv += ["--format", "tsv"]
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv.append(command)
    for flag in COMMANDS[command]:
        # a flag is sometimes left out, which is a usage error when required
        if draw(st.integers(0, 9)):
            value = draw(VALUES.get(flag, FLOATS))
            argv += [flag, value]
    return argv


@settings(max_examples=60, deadline=None)
@given(argv=cli_argv())
def test_any_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 64), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if "--kmax" in argv and int(argv[argv.index("--kmax") + 1]) > solver.ETA_TABLE_MAX_K:
        assert code in (1, 64)
    if code == 0:
        assert out.getvalue()
    else:
        assert "error" in err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["eta", "--k", str(10**400)],
        ["thresholds", "--k", str(10**400)],
        ["density", "--k", str(10**4000), "--r", "1.5"],
        ["census", "--k", str(10**4000), "--r", "1.5", "--bound", "10"],
    ],
    ids=lambda argv: argv[0],
)
def test_huge_k_exits_0_in_bounded_time(capsys, argv):
    # No k is turned into a float, and no power is raised to k + 1.
    start = time.process_time()
    code, out, err = run(capsys, *argv)
    assert time.process_time() - start < 2.0
    assert code == 0, err
    assert out and "Traceback" not in err


# The envelope route before flat number lists were joined in one piece:
# every value converted one at a time and written by json.dumps, kept as
# the oracle of cli's output.
def _old_convert(obj, path, brackets):
    if isinstance(obj, Bracket):
        brackets[path] = [obj.lo, obj.hi]
        return [obj.lo, obj.hi]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _old_convert(getattr(obj, f.name), f"{path}.{f.name}" if path else f.name, brackets)
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): _old_convert(v, f"{path}.{k}" if path else str(k), brackets) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        # a walk's columns, and a census's gaps, a table of rows of three floats
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_old_convert(v, f"{path}[{i}]", brackets) for i, v in enumerate(obj)]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _old_flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _old_flatten(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _old_flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def _old_json(envelope):
    return json.dumps(envelope, indent=2, allow_nan=False) + "\n"


def _old_emit(envelope, args):
    if args.format == "json":
        sys.stdout.write(_old_json(envelope))
    else:
        sys.stdout.write("".join(f"{key}\t{value}\n" for key, value in _old_flatten(envelope)))


ENVELOPE_COMMANDS = [
    ["census", "--k", "1", "--r", "2", "--bound", "2000"],
    ["census", "--k", "2", "--r", "1.9", "--bound", "2000"],
    ["census", "--k", "3", "--r", "2.45", "--bound", "2000"],
    ["approximate", "--k", "2", "--r", "1.8", "--x", "0.4", "--steps", "500"],
    ["table", "--kmax", "3"],
    ["density", "--k", "1", "--r", "2"],
    ["verify", "--suite", "all"],
]


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize("argv", ENVELOPE_COMMANDS, ids=" ".join)
def test_output_is_byte_identical_to_the_old_envelope_route(capsys, monkeypatch, argv, fmt):
    command, argv = argv[0], ["--format", fmt, *argv]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if fmt == "tsv" and command == "census":
        # The census TSV is one value a line, not an envelope.
        k, r, bound = int(argv[4]), float(argv[6]), int(argv[8])
        census = explorer.range_census(primes.load_or_sieve(), k, r, bound)
        assert first_difference(out, "".join(f"{float(v)!r}\n" for v in census.values)) is None
        return
    monkeypatch.setattr(cli, "_convert", _old_convert)
    monkeypatch.setattr(cli, "_emit", _old_emit)
    code, old, _ = run(capsys, *argv)
    assert code == 0
    assert first_difference(out, old) is None


@pytest.mark.parametrize(
    "payload",
    [
        {"values": np.array([1.0, 1.25, 3.0e-300, 2.5e20])},
        {"empty": np.array([]), "list": [], "tuple": ()},
        {"floats": [0.1, -2.0, 1e-7], "np": [np.float64(0.1), np.float64(1e22)]},
        {"ints": [3, -1, 10**30], "bools": [True, False], "mixed": [1, 2.0, True]},
        {"nested": [[1.0, 2.0], [3, 4], (5.5, 6.5), [[7.0]], [None, 1.0]]},
        {"records": ((1, 0.5, 0.25), (2, 0.75, 1.0))},
        {"bracket": Bracket(0.5, 0.75), "strings": ['"\\u00000"', "\\u00000"], "flat": [1.0]},
        {"table": [[1.0, 2.5], [3.0, 4.0]], "column": ((0.5,),), "ragged": [[1.0], [2.0, 3.0]]},
        {"gaps": tuple((1.0 + i / 7, 1.5 + i / 3, 1e-7 * i + 1e-6) for i in range(cli.JOIN_BLOCK + 5))},
        # a census's gaps, a float64 table, and an empty one
        {"gaps": np.arange(3.0 * cli.JOIN_BLOCK + 6).reshape(-1, 3) / 7, "none": np.empty((0, 3))},
    ],
)
def test_json_pieces_match_json_dumps(payload):
    brackets = {}
    old = _old_json(_old_convert(payload, "", brackets))
    new = b"".join(cli._json_pieces(cli._convert(payload, "", {}))).decode()
    assert first_difference(new, old) is None


def test_json_pieces_raise_json_errors_when_called():
    # before any piece is taken, as json.dumps would
    with pytest.raises(TypeError, match="^Object of type object is not JSON serializable$"):
        cli._json_pieces({"a": object()})


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_arrays_at_each_depth_match_json_dumps(depth):
    # Past a block: a float array, an int array (no runs), a table and an
    # empty array, each written as json.dumps(indent=2) writes it at depth.
    n = cli.JOIN_BLOCK + 1
    floats = np.linspace(0.001, 3.0, n)
    arrays = {
        "floats": floats,
        "ints": np.arange(-1, n - 1),
        "table": floats.repeat(3).reshape(-1, 3) / 7,
        "empty": np.array([]),
    }
    payload, plain = arrays, {name: a.tolist() for name, a in arrays.items()}
    for _ in range(depth - 1):
        payload, plain = [payload], [plain]
    got = b"".join(cli._json_pieces(cli._convert(payload, "", {}))).decode()
    assert first_difference(got, json.dumps(plain, indent=2) + "\n") is None


def test_tsv_of_a_table_of_floats_keys_each_cell():
    # Past a block, where the writer's pieces are split into lines: a
    # table of floats, an array and an array of runs of equal values.
    n = cli.JOIN_BLOCK + 512
    gaps = tuple((1.0 + i / 7, 1.5 + i / 3, 2.0 ** -(i % 64)) for i in range(n // 3))
    steps = np.repeat([0.0, 0.25, -0.0, 0.25], n // 4)
    envelope = {"result": {"gaps": gaps, "m": [1, 2], "values": np.linspace(0.001, 3.0, n), "steps": steps}}
    old = "".join(f"{key}\t{value}\n" for key, value in _old_flatten(_old_convert(envelope, "", {})))
    assert first_difference(b"".join(cli._tsv_pieces(cli._convert(envelope, "", {}))).decode(), old) is None


def test_flat_lists_are_joined_in_blocks():
    n = 2 * cli.JOIN_BLOCK + 3
    payload = {
        "values": np.linspace(1.0, 2.0, n),
        "nested": {"ints": np.arange(-5, n), "floats": 0.1 * np.arange(cli.JOIN_BLOCK)},
    }
    pieces = list(cli._json_pieces(cli._convert(payload, "", {})))
    assert first_difference(b"".join(pieces).decode(), _old_json(_old_convert(payload, "", {}))) is None
    assert max(piece.count(b",") for piece in pieces) <= cli.JOIN_BLOCK
    pieces = cli._array_pieces(payload["values"])
    assert [len(piece.split(b"\n")) for piece in pieces] == [cli.JOIN_BLOCK, cli.JOIN_BLOCK + 1, 4]
    with pytest.raises(ValueError):
        cli._array_pieces(np.r_[payload["nested"]["floats"], 1.0, math.nan], 2)


def test_convert_keeps_int_arrays_and_makes_other_arrays_float64():
    # Lists and tuples go to json's writer as lists, each item converted
    # alone, and any other value that is not an array passes through.
    for obj in ([1.0, 2.0], (1, 2), [3], ()):
        assert cli._convert(obj, "", {}) == list(obj)
    for obj in (1.5, "text", None):
        assert cli._convert(obj, "", {}) is obj
    ints = np.array([[1, 2], [3, 4]], dtype=np.int32)
    assert cli._convert(ints, "", {}) is ints
    floats = cli._convert(np.array([True, False]), "", {})
    assert (floats.dtype, floats.tolist()) == (np.float64, [1.0, 0.0])


@pytest.mark.parametrize(
    "ints",
    [
        [i % 7 for i in range(3 * cli.JOIN_BLOCK + 11)],  # a run a value
        [i % 256 for i in range(1000)] + [256, 2**62],  # values past 255
        [5, -1, 0, 3] * 700,  # a negative value
        # a walk's exponents: long runs of 0 and of k, past 255, and -1
        [0] * 3000 + [300] * 6000 + [2, 1] + [0] * 9000 + [-1] + [256] * 4000 + [300],
    ],
    ids=["small", "large", "negative", "runs"],
)
def test_int_blocks_match_int_repr(ints):
    # A line a value, and json's items two levels deep.
    for depth, separator in [(None, "\n"), (2, ",\n      ")]:
        text = b"".join(cli._array_pieces(np.array(ints), depth)).decode()
        assert text == separator.join(map(int.__repr__, ints))


@pytest.mark.parametrize(
    "payload",
    [[1.0, math.nan], [math.inf, 2.0], np.array([1.0, -math.inf]), [np.float64("nan")]],
)
def test_non_finite_float_in_a_flat_list_raises(payload):
    with pytest.raises(ValueError):
        _old_json(_old_convert({"values": payload}, "", {}))
    with pytest.raises(ValueError):
        cli._json_pieces(cli._convert({"values": payload}, "", {}))
