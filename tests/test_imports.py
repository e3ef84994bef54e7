import ast
import importlib
import importlib.util
import inspect
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
