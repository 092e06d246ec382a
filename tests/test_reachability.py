"""Every function in src/ runs on some documented command.

One fresh interpreter sets a ``sys.setprofile`` hook before it imports the
package, so that import-time calls count too, and then runs in process,
through ``cli.main``, the README's commands, the golden files' commands,
TSV forms, ``--out``, a usage error and a typed error, and both scripts.
Every function, method, lambda and comprehension defined under
src/sigma_density that the hook never sees called fails the test by name,
unless ``ALLOWED`` names it, or a function it is defined in, with the
reason no command reaches it; an allowed function that the run does
reach fails too, so the list only shrinks."""

import inspect
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sigma_density"

README = [
    ["eta", "--k", "3"],
    ["eta-limit", "--eps", "1e-9"],
    ["thresholds", "--k", "3"],
    ["table", "--kmax", "10"],
    ["density", "--k", "1", "--r", "2"],
    ["approximate", "--k", "1", "--r", "1.5", "--x", "0.3", "--steps", "1000"],
    ["census", "--k", "1", "--r", "2", "--bound", "100000"],
    ["verify", "--suite", "all"],
]
GOLDEN = [
    ["eta-limit"],
    ["eta-limit", "--eps", "1e-13"],
    ["thresholds", "--k", "7", "--eps", "1e-13"],
    ["thresholds", "--k", "1", "--eps", "1e-2"],
    ["density", "--k", "1", "--r", "1.5"],
    ["density", "--k", "5", "--r", "1.87"],
    ["density", "--k", "2", "--r", "40"],
    ["census", "--k", "1", "--r", "2.0", "--bound", "1000"],
    ["approximate", "--k", "2", "--r", "1.9", "--x", "0.5", "--steps", "1000"],
]
OTHERS = [
    ["--format", "tsv", "census", "--k", "1", "--r", "2.0", "--bound", "1000"],
    ["--format", "tsv", "approximate", "--k", "2", "--r", "1.9", "--x", "0.5", "--steps", "1000"],
    ["--format", "tsv", "density", "--k", "1", "--r", "2"],
    ["--out", "{tmp}/out.json", "eta", "--k", "2"],
    ["density", "--k", "1", "--r", "1e308"],  # undetermined
    ["density", "--k", "1"],  # usage error: exits 64
    # typed errors: exit 1
    ["--prime-limit", "5", "density", "--k", "1", "--r", "1.5"],
    ["--prime-limit", "100", "approximate", "--k", "1", "--r", "1.5", "--x", "0.3", "--steps", "99"],
    ["table", "--kmax", "101"],
]
EXIT_CODES = [0] * (len(README) + len(GOLDEN) + 5) + [64, 1, 1, 1]
SCRIPTS = {
    "build_threshold_table": ["--prime-limit", "100000", "--kmax", "2"],
    "map_range_gaps": [
        "--prime-limit", "100000", "--r-min", "1.5", "--r-max", "1.7", "--bound", "1000"
    ],
}

ALLOWED = {
    "solver.m_selector": "perfbench/spans.py traces it by name; thresholds and table call "
    "select_m",
}

DRIVER = """
import contextlib, importlib.util, io, json, sys

requests, scripts, scripts_dir, out = json.loads(sys.argv[1])
called = set()


def hook(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno, frame.f_code.co_name))


sys.setprofile(hook)
from sigma_density import cli

codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in requests:
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
    for name, argv in scripts.items():
        spec = importlib.util.spec_from_file_location(name, f"{scripts_dir}/{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        codes.append(module.main(argv))
sys.setprofile(None)
with open(out, "w") as f:
    json.dump({"codes": codes, "called": sorted(called)}, f)
"""


def definitions():
    """(file, first line, name) -> qualified name of every function-like
    code object in the package's source: functions, methods, lambdas and
    comprehensions, not module or class bodies."""
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if not inspect.iscode(const):
                continue
            if const.co_flags & inspect.CO_NEWLOCALS:
                qualified = prefix + const.co_name
                found[const.co_filename, const.co_firstlineno, const.co_name] = qualified
                walk(const, qualified + ".<locals>.")
            else:  # a class body
                walk(const, prefix + const.co_name + ".")

    for path in sorted(PACKAGE.glob("*.py")):
        filename = os.path.realpath(path)
        walk(compile(path.read_text(), filename, "exec"), f"{path.stem}.")
    return found


def test_every_src_function_is_reached(tmp_path):
    requests = [[arg.format(tmp=tmp_path) for arg in argv] for argv in README + GOLDEN + OTHERS]
    out = tmp_path / "reached.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    payload = json.dumps([requests, SCRIPTS, str(ROOT / "scripts"), str(out)])
    subprocess.run([sys.executable, "-c", DRIVER, payload], env=env, check=True, timeout=120)
    result = json.loads(out.read_text())
    assert result["codes"] == EXIT_CODES + [0] * len(SCRIPTS)
    called = {(os.path.realpath(f), line, name) for f, line, name in result["called"]}
    defined = definitions()
    reached = {qualified for key, qualified in defined.items() if key in called}
    def allowed(name):
        return any(name == a or name.startswith(a + ".<locals>.") for a in ALLOWED)

    unreached = sorted(name for name in set(defined.values()) - reached if not allowed(name))
    assert not unreached, f"never called: {unreached}"
    stale = sorted(reached & set(ALLOWED)) + sorted(set(ALLOWED) - set(defined.values()))
    assert not stale, f"reached or gone, so take them off ALLOWED: {stale}"
