import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import flowcomplex
from flowcomplex import THEOREM_NAMES, Classifier

PACKAGE = Path(flowcomplex.__file__).parent


def test_no_module_imports_a_private_name_of_another():
    """A name with a leading underscore stays inside its module: no
    ``from .<module> import _<name>`` anywhere in the package.  Reading a
    private name as a module attribute (``randomgen`` uses
    ``gallery._torus_blowup_pair``) is not checked here."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_no_module_imports_cached_property():
    """The per-instance caches are ``model.cached_attribute``: on CPython 3.10
    and 3.11 the standard library's cached property takes a lock, shared by
    every instance, on each first read."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names if "cached_property" in alias.name]
            elif isinstance(node, ast.Attribute) and node.attr == "cached_property":
                found.append(f"{path.name}:{node.lineno} .cached_property")
    assert found == []


def test_every_export_resolves_once():
    """``__all__`` names each public name once, every one resolves, and
    ``from flowcomplex import *`` runs."""
    names = flowcomplex.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(flowcomplex, name)] == []
    namespace: dict = {}
    exec("from flowcomplex import *", namespace)
    assert set(names) <= set(namespace)


def test_benchmark_hooks_resolve():
    """Every name the benchmark's tracer wraps resolves, so no per-layer metric
    reads 0 because a name moved; the benchmark's oracle imports too.  The
    tracer skips the retired names below, whose metrics read 0 by design."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    retired_functions = {"orbits.generalized_extended_orbit", "orbits.extended_limit_cycles"}
    unresolved = [
        span
        for span, module, attr in tracing.FUNCTIONS
        if not callable(getattr(importlib.import_module(f"flowcomplex.{module}"), attr, None))
        and span not in retired_functions
    ]
    assert unresolved == []

    retired_methods = {"ext", "gen_ext", "closure"}
    not_plain = [
        method
        for _, method in tracing.METHODS
        if not inspect.isfunction(Classifier.__dict__.get(method)) and method not in retired_methods
    ]
    assert not_plain == []

    assert THEOREM_NAMES == tracing.THEOREMS
    importlib.import_module("naive_oracle")


# Counts the ``exec`` calls on generated source during ``import
# flowcomplex.cli`` in a fresh interpreter (module bodies run as code objects
# and are not counted), and what a bare ``dataclass(init=False, repr=False,
# eq=False)`` costs by itself: nothing on CPython 3.10-3.12, one on 3.13.
EXEC_COUNTER = '''
import builtins, dataclasses, json, sys
calls = 0
real_exec = builtins.exec

def counted(source, *args, **kwargs):
    global calls
    calls += isinstance(source, str)
    return real_exec(source, *args, **kwargs)

builtins.exec = counted

@dataclasses.dataclass(init=False, repr=False, eq=False)
class Probe:
    x: int

bare, calls = calls, 0
import flowcomplex.cli
builtins.exec = real_exec
classes = sum(
    isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == name
    for name, module in list(sys.modules.items())
    if name.startswith("flowcomplex.")
    for obj in vars(module).values()
)
print(json.dumps({"bare": bare, "execs": calls, "classes": classes}))
'''


def test_import_runs_at_most_one_exec_per_value_class():
    """Start-up cost guard, counted rather than timed so that it cannot
    flake: ``value_class`` generates one method per class, where the stdlib's
    frozen dataclass generates about six (120 calls for the package on
    CPython 3.11)."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", EXEC_COUNTER], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    assert found["classes"] > 0
    assert found["execs"] <= found["classes"] * (1 + found["bare"])
