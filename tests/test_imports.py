import ast
from pathlib import Path

import flowcomplex

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
