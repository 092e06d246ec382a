"""Smoke tests for the scripts under scripts/: each main runs on small
arguments, and bad input ends in a usage error (64) or a typed error (1)
instead of a traceback or a loop that never ends.  compare_bench runs on
a throwaway git repository with a stub in place of the benchmark."""

import importlib.util
import json
import pathlib
import shlex
import subprocess

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(capsys, name, *argv):
    try:
        code = load(name).main(list(argv))
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
        ("build_threshold_table", ["--prime-limit", "100000"], 64),
        ("map_range_gaps", ["--prime-limit", "100000"], 64),
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


def git(repo, *argv):
    subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *argv],
        check=True,
        capture_output=True,
    )


@pytest.fixture
def two_commits(tmp_path):
    """A git repository whose two commits differ in src/."""
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "perfbench").mkdir()
    (repo / "perfbench" / "run.py").write_text("# stand-in\n")
    metrics = [
        {"name": "roots_per_s", "better": "higher", "bound": 0.25},
        {"name": "verify_s", "better": "lower", "bound": 0.25},
    ]
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))
    (repo / "elsewhere.txt").write_text("not exported\n")
    git(repo, "init", "-q")
    for side in ("parent", "change"):
        (repo / "src" / "side.txt").write_text(side)
        git(repo, "add", "-A")
        git(repo, "commit", "-q", "-m", side)
    return repo


def test_compare_bench_alternates_keeps_logs_and_summarises(
    two_commits, tmp_path, capsys, monkeypatch
):
    calls = []

    def stub(argv, cwd, stdout, stderr, on_line):
        # the exported tree tells the side; the change verifies faster on
        # every seed but the last, whose parent run prints a CLOCK line, and
        # solves 30% fewer roots, past the bound of 25%
        side = (pathlib.Path(cwd) / "src" / "side.txt").read_text()
        seed = int(argv[argv.index("--seed") + 1])
        calls.append((side, seed, argv[argv.index("--workload") + 1]))
        assert not (pathlib.Path(cwd) / "elsewhere.txt").exists()
        fast = side == "change" and seed < 104
        verify = (0.03 if fast else 0.05) + 0.0001 * (seed - 100)
        lines = [f"perfbench seed={seed}\n"]
        if side == "parent" and seed == 104:
            lines.append("  CLOCK: eta requests took over 2x their CPU time in wall time\n")
        metrics = {
            "roots_per_s": {"value": (400.0 + seed) * (0.7 if side == "change" else 1), "unit": "1/s"},
            "verify_s": {"value": verify, "unit": "s"},
        }
        lines.append(json.dumps({"correct": len(lines) == 1, "failed": 0, "metrics": metrics}) + "\n")
        for line in lines:
            stdout.write(line)
            on_line(line)
        stderr.write(f"err {side} {seed}\n")
        return 0

    out = tmp_path / "out"
    argv = [
        "--parent", "HEAD~1", "--change", "HEAD", "--workload", "point", "--pairs", "5",
        "--seed-base", "100", "--seconds", "2", "--claim", "verify_s", "--out", str(out),
    ]
    monkeypatch.chdir(two_commits)
    assert load("compare_bench").main(argv, runner=stub) == 0
    assert calls == [
        ("parent", 100, "point"), ("change", 100, "point"),
        ("change", 101, "point"), ("parent", 101, "point"),
        ("parent", 102, "point"), ("change", 102, "point"),
        ("change", 103, "point"), ("parent", 103, "point"),
        ("parent", 104, "point"), ("change", 104, "point"),
    ]
    printed = capsys.readouterr().out
    assert "point-104-parent: CLOCK: eta requests took over 2x" in printed
    assert "claim verify_s on point: 4 of 5 pairs won" in printed
    assert "roots_per_s on point past its bound of 0.25: change median 351.4 against the parent's 502" in printed
    assert "verify_s on point past" not in printed
    assert (out / "logs" / "point-104-parent.err").read_text() == "err parent 104\n"
    assert "CLOCK" in (out / "logs" / "point-104-parent.out").read_text()
    report = json.loads((out / "compare.json").read_text())
    assert shlex.split(report["command"]) == ["python3", "scripts/compare_bench.py", *argv]
    assert report["parent"]["commit"] != report["change"]["commit"]
    claim = report["claim"]
    assert (claim["workload"], claim["metric"], claim["better"]) == ("point", "verify_s", "lower")
    assert (claim["pairs"], claim["change_wins"]) == (5, 4)
    assert claim["median_gain"] == pytest.approx(claim["parent_median"] - claim["change_median"])
    assert claim["holds"] is False  # 4 of 5 pairs is under 9 of 10
    blocks = report["end_to_end"]["point"]
    assert set(blocks) == {"roots_per_s", "verify_s"}
    assert blocks["roots_per_s"]["change_wins"] == 0
    assert (blocks["roots_per_s"]["bound"], blocks["roots_per_s"]["within_bound"]) == (0.25, False)
    assert (blocks["verify_s"]["bound"], blocks["verify_s"]["within_bound"]) == (0.25, True)
    pairs = report["pairs"]["point"]
    assert [p["first"] for p in pairs] == ["parent", "change"] * 2 + ["parent"]
    assert pairs[4]["parent_correct"] is False and pairs[4]["change_correct"] is True
    assert pairs[0]["parent"] == {"roots_per_s": 500.0, "verify_s": pytest.approx(0.05)}


def test_compare_bench_reports_a_run_without_its_json(
    two_commits, tmp_path, capsys, monkeypatch
):
    def crash(argv, cwd, stdout, stderr, on_line):
        stderr.write("Traceback\n")
        return 1

    out = tmp_path / "out"
    argv = [
        "--parent", "HEAD~1", "--change", "HEAD", "--workload", "solve", "--pairs", "1",
        "--seed-base", "7", "--out", str(out),
    ]
    monkeypatch.chdir(two_commits)
    assert load("compare_bench").main(argv, runner=crash) == 0
    assert "solve-7-parent: exit code 1, no closing JSON line" in capsys.readouterr().out
    report = json.loads((out / "compare.json").read_text())
    assert report["pairs"]["solve"][0]["change_correct"] is False
    assert report["end_to_end"]["solve"] == {}


@pytest.mark.parametrize(
    "better, change, within",
    [("lower", 125.0, True), ("lower", 126.0, False), ("lower", 10.0, True),
     ("higher", 75.0, True), ("higher", 74.0, False), ("higher", 500.0, True)],
)
def test_compare_bench_bound_is_relative_to_the_parent_in_the_metric_direction(better, change, within):
    # a change no worse than the parent's median by more than the bound
    # is within it, a better one always
    block = load("compare_bench").summary([100.0], [change], better, 0.25)
    assert (block["bound"], block["within_bound"]) == (0.25, within)


@pytest.mark.parametrize(
    "change, claim, message",
    [
        ("HEAD", "roots_per_sec", "--claim roots_per_sec is not an end-to-end metric: choose from roots_per_s, verify_s"),
        ("nosuchrev", "roots_per_s", "no BENCHMARK.json at --change nosuchrev"),
    ],
)
def test_compare_bench_refuses_a_bad_argument_before_any_run(
    two_commits, tmp_path, capsys, monkeypatch, change, claim, message
):
    calls = []

    def stub(argv, cwd, stdout, stderr, on_line):
        calls.append(argv)
        return 1

    out = tmp_path / "out"
    argv = [
        "--parent", "HEAD~1", "--change", change, "--workload", "solve", "--pairs", "2",
        "--seed-base", "7", "--claim", claim, "--out", str(out),
    ]
    monkeypatch.chdir(two_commits)
    with pytest.raises(SystemExit) as exc:
        load("compare_bench").main(argv, runner=stub)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_compare_bench_refuses_a_repeated_workload(two_commits, tmp_path, capsys, monkeypatch):
    # a second pass would rerun the same seeds and overwrite the first
    # pass's pairs and logs
    calls = []

    def stub(argv, cwd, stdout, stderr, on_line):
        calls.append(argv)
        return 1

    out = tmp_path / "out"
    argv = [
        "--parent", "HEAD~1", "--change", "HEAD", "--workload", "solve", "--workload", "point",
        "--workload", "solve", "--pairs", "2", "--seed-base", "7", "--out", str(out),
    ]
    monkeypatch.chdir(two_commits)
    with pytest.raises(SystemExit) as exc:
        load("compare_bench").main(argv, runner=stub)
    assert exc.value.code == 2
    assert "--workload solve given more than once" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_compare_bench_a_claim_with_no_complete_pair_does_not_hold(
    two_commits, tmp_path, capsys, monkeypatch
):
    def crash(argv, cwd, stdout, stderr, on_line):
        return 1

    out = tmp_path / "out"
    argv = [
        "--parent", "HEAD~1", "--change", "HEAD", "--workload", "solve", "--pairs", "2",
        "--seed-base", "7", "--claim", "roots_per_s", "--out", str(out),
    ]
    monkeypatch.chdir(two_commits)
    assert load("compare_bench").main(argv, runner=crash) == 0
    assert "claim roots_per_s on solve: no complete pair: does not hold" in capsys.readouterr().out
    report = json.loads((out / "compare.json").read_text())
    assert report["claim"] == {
        "workload": "solve", "metric": "roots_per_s", "better": "higher", "pairs": 0, "holds": False
    }
    assert report["end_to_end"]["solve"] == {}
