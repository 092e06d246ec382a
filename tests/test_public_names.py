"""Every name the package exports, and every function the benchmark's
tracer binds by name (``TRACED`` in perfbench/spans.py), exists: a removed
or renamed one fails here, not only in a traced benchmark run."""

import importlib
import importlib.util
import pathlib

import sigma_density

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_exported_and_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # spans imports cpuclock
    spec = importlib.util.spec_from_file_location("spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = []
    for qualified in spans.TRACED:
        module_name, attr = qualified.rsplit(".", 1)
        module = importlib.import_module(f"sigma_density.{module_name}")
        if not callable(getattr(module, attr, None)):
            unresolved.append(qualified)
    assert not unresolved
    assert [name for name in sigma_density.__all__ if not hasattr(sigma_density, name)] == []
