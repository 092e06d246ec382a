import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigma_density import cli, explorer, primes, solver
from sigma_density.brackets import Bracket

PRIME_ARGS = ["--prime-limit", "500000"]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_eta_limit_contains_published_value(capsys):
    code, envelope, _ = run_json(capsys, *PRIME_ARGS, "eta-limit")
    assert code == 0
    lo, hi = envelope["result"]["value"]
    assert lo <= 1.8877909 <= hi or abs(0.5 * (lo + hi) - 1.8877909) < 1e-6
    assert envelope["command"] == "eta-limit"
    assert envelope["provenance"]["prime_limit"] == 500000
    assert "value" in envelope["brackets"]


def test_thresholds_selector(capsys):
    code, envelope, _ = run_json(capsys, *PRIME_ARGS, "thresholds", "--k", "3")
    assert code == 0
    assert envelope["result"]["m_min"] == 2
    assert envelope["result"]["thresholds"]["4"]["boundary"] is True


def test_density_not_dense(capsys):
    code, envelope, _ = run_json(capsys, *PRIME_ARGS, "density", "--k", "1", "--r", "2")
    assert code == 0
    assert envelope["result"]["verdict"] == "not_dense"


def test_density_dense(capsys):
    code, envelope, _ = run_json(capsys, *PRIME_ARGS, "density", "--k", "1", "--r", "1.5")
    assert code == 0
    assert envelope["result"]["verdict"] == "dense"


def test_approximate(capsys):
    code, envelope, _ = run_json(
        capsys, *PRIME_ARGS, "approximate", "--k", "1", "--r", "1.5", "--x", "0.3", "--steps", "50"
    )
    assert code == 0
    assert envelope["result"]["residual"] >= 0


def test_census_json_and_tsv_agree(capsys):
    code, envelope, _ = run_json(
        capsys, *PRIME_ARGS, "census", "--k", "1", "--r", "2", "--bound", "500"
    )
    assert code == 0
    json_values = envelope["result"]["values"]
    code, out, _ = run(
        capsys, *PRIME_ARGS, "--format", "tsv", "census", "--k", "1", "--r", "2", "--bound", "500"
    )
    assert code == 0
    tsv_values = [float(line) for line in out.strip().splitlines()]
    assert tsv_values == json_values


def test_determinism(capsys):
    argv = [*PRIME_ARGS, "thresholds", "--k", "2"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_tsv_same_numbers_as_json(capsys):
    code, envelope, _ = run_json(capsys, *PRIME_ARGS, "eta", "--k", "1", "--eps", "1e-8")
    code2, out, _ = run(
        capsys, *PRIME_ARGS, "--format", "tsv", "eta", "--k", "1", "--eps", "1e-8"
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
    code, out, err = run(capsys, *PRIME_ARGS, "density", "--k", "1", "--r", "0.5")
    assert code == 1
    assert "error" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--bogus-flag", "eta-limit"])
    assert excinfo.value.code == 64
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*PRIME_ARGS, "eta", "--k", "notanumber"])
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
        [*PRIME_ARGS, "eta", "--k", "notanumber"],
        [*PRIME_ARGS, "density", "--k", "2", "--r", "1.9"],
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
    target = tmp_path / "first.json"
    argv = ["--prime-limit", "5000", "--out", str(target), "eta", "--k", "1", "--eps", "1e-6"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == ""
    first = json.loads(target.read_text())
    assert first["provenance"]["prime_limit"] == 5000
    assert first["parameters"]["eps"] == 1e-6
    code, envelope, _ = run_json(capsys, "eta", "--k", "1")
    assert code == 0
    assert envelope["provenance"]["prime_limit"] == primes.DEFAULT_LIMIT
    assert envelope["parameters"]["eps"] == solver.DEFAULT_EPS
    args = cli.build_parser().parse_args(["density", "--k", "1", "--r", "2"])
    assert (args.format, args.prime_limit, args.out) == ("json", primes.DEFAULT_LIMIT, None)
    assert not hasattr(args, "eps")


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--r", "inf", "--k", "1"],
        ["approximate", "--k", "1", "--r", "1.5", "--x", "nan", "--steps", "10"],
        ["census", "--k", "1", "--r", "2", "--bound", "100", "--resolution", "inf"],
        ["--prime-limit", "5", "density", "--k", "1", "--r", "1.5"],
        ["--prime-limit", "1", "eta-limit"],
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
    code, envelope, err = run_json(capsys, *PRIME_ARGS, "verify", "--suite", "all")
    assert code == 0
    assert envelope["parameters"] == {"suite": "all"}
    suites = envelope["result"]["suites"]
    assert [s["suite"] for s in suites] == ["gap-lemma", "inequalities", "monotonicity"]
    for suite in suites[1:]:
        assert suite["passed"] is True and suite["margin"] > 0
        for check in suite["report"]["checks"]:
            assert check["cells"] >= 1 and check["min_slack"] > 0


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


def test_prime_limit_above_capacity_allocates_nothing_large(capsys):
    argv = ["--prime-limit", "10000000000", "density", "--k", "1", "--r", "2"]
    code, peak = _exit_code_and_peak(capsys, argv)
    assert code == 1
    assert peak < 10_000_000


def test_walk_above_capacity_allocates_nothing_large(capsys):
    argv = ["approximate", "--k", "1000000", "--r", "1.5", "--x", "0.3", "--steps", "1000"]
    code, peak = _exit_code_and_peak(capsys, argv)
    assert code == 1
    assert peak < 10_000_000


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


def test_census_needs_no_primes_from_the_table(capsys):
    argv = ["census", "--k", "2", "--r", "1.7", "--bound", "100000"]
    code, small_table, _ = run_json(capsys, "--prime-limit", "30", *argv)
    assert code == 0
    _, default_table, _ = run_json(capsys, *argv)
    assert small_table["result"]["values"] == default_table["result"]["values"]


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


def test_walk_past_the_table_fails_before_any_walk(capsys, monkeypatch):
    def no_walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(explorer, "log_g_iv", no_walk)
    argv = ["--prime-limit", "100", "approximate", "--k", "1", "--r", "1.5", "--x", "0.3", "--steps", "1000"]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "sigma-density: error: steps=1000 exceeds the table of 25 primes\n"


# Each writes far more than a pipe buffers, so the write is still going on
# when the reader closes its end.  Unbuffered, stdout writes through to the
# raw file, which takes a short write without an error: a TSV envelope is
# one piece, which used to end cut short with exit 0.
CENSUS = ["census", "--k", "1", "--r", "2", "--bound", "100000"]
TSV_WALK = ["--format", "tsv", "approximate", "--k", "1", "--r", "1.5", "--x", "0.3", "--steps", "100000"]


@pytest.mark.parametrize(
    "unbuffered, argv",
    [(False, CENSUS), (True, CENSUS), (False, TSV_WALK), (True, TSV_WALK)],
    ids=["buffered", "unbuffered", "tsv-buffered", "tsv-unbuffered"],
)
def test_closed_pipe_exits_without_a_traceback(unbuffered, argv):
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen(
        [sys.executable, "-m", "sigma_density.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.readline() in (b"{\n", b"command\tapproximate\n")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert "Traceback" not in err, err
    assert code == 1


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, *PRIME_ARGS, "--out", str(target), "eta-limit", "--eps", "1e-6")
    assert code == 0
    assert out == ""
    envelope = json.loads(target.read_text())
    assert envelope["command"] == "eta-limit"


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
# and ordinary ones, up to magnitude 1e6.  zeta's cost does not depend on
# its argument (k + 1) r, so neither k nor r is kept small.
FLOATS = st.sampled_from(
    ["nan", "inf", "-inf", "-1", "0", "1e-20", "1e-14", "1e-9", "0.3", "1", "1.0001", "1.5", "2", "1e6"]
) | st.one_of(st.floats(1.0001, 3), st.floats(-1e6, 1e6)).map(repr)
# Strings for the other options; FLOATS for any option not listed.  --kmax
# is small, or above the table's capacity, where it must fail before any
# solve: a table solves every row up to it.
VALUES = {
    "--k": st.integers(-2, 1000).map(str),
    "--kmax": (st.integers(-1, 3) | st.integers(101, 10**9)).map(str),
    "--steps": st.integers(-1, 1000).map(str),
    "--bound": st.integers(-1, 10_000).map(str),
    "--suite": st.sampled_from(["gap-lemma", "inequalities", "monotonicity", "all"]),
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
    limit = draw(st.sampled_from([-1, 0, 1, 5, 30, 1000, 10**10]) | st.just(100_000))
    argv = ["--prime-limit", str(limit)]
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
        return [float(v) for v in obj]
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


def first_difference(got, expected):
    """The first line where two texts differ, or None: a diff of whole
    outputs this long would take pytest minutes to print."""
    if got == expected:
        return None
    got_lines, expected_lines = got.splitlines(True), expected.splitlines(True)
    for i, (a, b) in enumerate(zip(got_lines, expected_lines)):
        if a != b:
            return i, a, b
    return len(got_lines), len(expected_lines)


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
    argv = [*PRIME_ARGS, "--format", fmt, *argv]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if fmt == "tsv" and argv[4] == "census":
        # The census TSV is one value a line, not an envelope.
        k, r, bound = int(argv[6]), float(argv[8]), int(argv[10])
        census = explorer.range_census(primes.sieve(500000), k, r, bound)
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
        {"records": ((1, 0.5, 0.25), (2, 0.75, 1.0)), "np_ints": [np.int64(3)]},
        {"bracket": Bracket(0.5, 0.75), "strings": ['"\\u00000"', "\\u00000"], "flat": [1.0]},
    ],
)
def test_json_pieces_match_json_dumps(payload):
    brackets = {}
    old = _old_json(_old_convert(payload, "", brackets))
    new = "".join(cli._json_pieces(cli._convert(payload, "", {})))
    assert first_difference(new, old) is None


def test_flat_lists_are_joined_in_blocks():
    n = 2 * cli.JOIN_BLOCK + 3
    payload = {
        "values": np.linspace(1.0, 2.0, n),
        "nested": {"ints": list(range(-5, n)), "floats": [0.1 * i for i in range(cli.JOIN_BLOCK)]},
    }
    pieces = cli._json_pieces(cli._convert(payload, "", {}))
    assert first_difference("".join(pieces), _old_json(_old_convert(payload, "", {}))) is None
    assert max(piece.count(",") for piece in pieces) <= cli.JOIN_BLOCK
    flat = cli._flat(payload["values"])
    assert [len(piece.split("\n")) for piece in flat.join("\n")] == [cli.JOIN_BLOCK, cli.JOIN_BLOCK + 1, 4]
    with pytest.raises(ValueError):
        cli._flat([*payload["nested"]["floats"], 1.0, math.nan]).join(",")


@pytest.mark.parametrize(
    "payload",
    [[1.0, math.nan], [math.inf, 2.0], np.array([1.0, -math.inf]), [np.float64("nan")]],
)
def test_non_finite_float_in_a_flat_list_raises(payload):
    with pytest.raises(ValueError):
        _old_json(_old_convert({"values": payload}, "", {}))
    with pytest.raises(ValueError):
        cli._json_pieces(cli._convert({"values": payload}, "", {}))
