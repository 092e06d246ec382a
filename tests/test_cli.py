import contextlib
import io
import json
import pathlib
import re
import shlex
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from sigma_density import cli, solver

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
