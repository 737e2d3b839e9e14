"""No module of ``src/paravec`` imports a name it never uses.

A name counts as used when the module reads it anywhere, or lists it in
``__all__``; ``from __future__`` imports are compiler directives, not names.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "paravec").glob("*.py"))


def unused_imports(source):
    """``[(line, name)]`` of each name ``source`` imports and never uses."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from .core import Paravector, vdot\nimport math\n__all__ = ['vdot']\n"
    assert unused_imports(source) == [(1, "Paravector"), (2, "math")]
