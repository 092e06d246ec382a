"""Every certified number is a pair of Python integers at its kernel
size's unit (see ``zeta``'s docstring): no module of the package imports
``mpmath.libmp``, whose interval tuples the package no longer carries, and
``import sigma_density`` loads no mpmath at all."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def libmp_imports(path: pathlib.Path) -> list[str]:
    """The imports of ``mpmath.libmp``, or of a name from it, in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [n for n in names if n == "mpmath.libmp" or n.startswith("mpmath.libmp.")]
    return found


def test_no_module_imports_mpmath_libmp():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 9
    assert {path.name: libmp_imports(path) for path in modules if libmp_imports(path)} == {}


def test_the_guard_sees_each_form_of_the_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "import mpmath.libmp\nfrom mpmath.libmp import mpi_log\nfrom mpmath import libmp\n"
        "from mpmath.libmp.libmpf import fone\nfrom mpmath import fp\nfrom .libmp import x\n"
    )
    assert libmp_imports(path) == [
        "mpmath.libmp",
        "mpmath.libmp",
        "mpmath.libmp.mpi_log",
        "mpmath.libmp",
        "mpmath.libmp.libmpf",
        "mpmath.libmp.libmpf.fone",
    ]


def test_importing_the_package_loads_no_mpmath():
    code = "import sys, sigma_density; print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)}
    )
    assert out.stdout == "[]\n"
