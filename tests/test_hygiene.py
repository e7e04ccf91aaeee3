"""Source hygiene that a linter would check: no module imports a name it
never uses, and every name the package exports resolves."""

import ast
import pathlib

import pytest

import radival

MODULES = sorted(
    path
    for path in pathlib.Path(radival.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_exports_resolve():
    missing = [name for name in radival.__all__ if not hasattr(radival, name)]
    assert missing == []
