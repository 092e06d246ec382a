"""Smoke tests for the scripts under scripts/: each main runs on small
arguments, and bad input ends in a usage error (64) or a typed error (1)
instead of a traceback or a loop that never ends."""

import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
PRIME_ARGS = ["--prime-limit", "100000"]


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(capsys, name, *argv):
    try:
        code = load(name).main([*PRIME_ARGS, *argv])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.out, captured.err


def test_threshold_table(capsys):
    code, out, _ = run(capsys, "build_threshold_table", "--kmax", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("\t")[0] == "k"
    assert [line.split("\t")[:2] for line in lines[1:]] == [["1", "1"], ["2", "2"]]


def test_range_gaps(capsys):
    code, out, _ = run(
        capsys, "map_range_gaps", "--r-min", "1.5", "--r-max", "1.7", "--bound", "1000"
    )
    assert code == 0
    rows = [line.split("\t")[0] for line in out.splitlines()[2:]]
    assert rows == ["1.500", "1.600", "1.700"]


@pytest.mark.parametrize(
    "name, argv, expected",
    [
        ("build_threshold_table", ["--eps", "nan"], 64),
        ("build_threshold_table", ["--eps", "inf"], 64),
        ("build_threshold_table", ["--eps", "0"], 1),
        ("build_threshold_table", ["--eps", "1e-20"], 1),
        ("build_threshold_table", ["--kmax", "0"], 1),
        ("map_range_gaps", ["--r-step", "0"], 64),
        ("map_range_gaps", ["--r-step", "-0.1"], 64),
        ("map_range_gaps", ["--r-step", "nan"], 64),
        ("map_range_gaps", ["--r-min", "inf"], 64),
        ("map_range_gaps", ["--resolution", "nan"], 64),
        ("map_range_gaps", ["--r-min", "-1e308", "--r-max", "1e308"], 64),
        ("map_range_gaps", ["--k", "0"], 1),
        ("map_range_gaps", ["--r-min", "0.5", "--bound", "10"], 1),
    ],
)
def test_bad_input_is_rejected(capsys, name, argv, expected):
    code, out, err = run(capsys, name, *argv)
    assert code == expected
    assert err.strip()


def test_tiny_step_ends(capsys):
    # r + 1e-300 == r, so an accumulated grid would never pass --r-max
    code, out, _ = run(
        capsys, "map_range_gaps", "--r-min", "1.5", "--r-max", "1.5", "--r-step", "1e-300",
        "--bound", "10",
    )
    assert code == 0
    assert len(out.splitlines()) == 3
