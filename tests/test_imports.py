"""Source hygiene: every module of the package uses what it imports."""

import ast
from pathlib import Path

import pytest

import hamlab

MODULES = sorted(Path(hamlab.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """The names a module imports and never reads, counting a name listed in
    ``__all__`` as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detector():
    source = (
        "import os\nimport numpy as np\nfrom a import b, c as d\n"
        "__all__ = ['b']\nprint(np.pi)\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "d")]
