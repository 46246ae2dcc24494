"""Source hygiene: every module of the package uses what it imports, every
private name the package defines is read inside the package, and every public
one outside the API is read outside the tests."""

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


def private_definitions(source: str) -> list:
    """The private names (one leading underscore) a module defines at its top
    level, by def, class or assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def read_names(source: str) -> set:
    """The names a module reads, bare or as an attribute."""
    nodes = list(ast.walk(ast.parse(source)))
    bare = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bare | {node.attr for node in nodes if isinstance(node, ast.Attribute)}


def test_private_names_are_read_inside_the_package():
    # a private helper or constant that only tests reach is dead weight
    sources = {path.name: path.read_text() for path in MODULES}
    read = set().union(*map(read_names, sources.values()))
    unread = [(name, n) for name, src in sources.items() for n in private_definitions(src) if n not in read]
    assert unread == []


def public_definitions(source: str) -> list:
    """The public functions and classes a module defines at its top level."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def test_public_helpers_outside_the_api_are_read_outside_the_tests():
    # a public function or class that hamlab does not export, and that only
    # tests call, is a test helper living in the library
    root = Path(__file__).resolve().parents[1]
    trees = [root / "src", root / "bench", root / "demos"]
    read = set().union(*(read_names(p.read_text()) for tree in trees for p in sorted(tree.rglob("*.py"))))
    unread = [
        (path.name, name)
        for path in MODULES
        for name in public_definitions(path.read_text())
        if name not in hamlab.__all__ and name not in read
    ]
    assert unread == []


def test_private_name_detector():
    source = "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _A\nclass _C:\n    pass\nx = _C\n"
    assert private_definitions(source) == ["_A", "_B", "_f", "_C"]
    assert {"_A", "_C"} <= read_names(source) and not {"_B", "_f"} & read_names(source)


def test_every_exported_name_is_bound():
    # a removed definition must leave __all__ too, or star imports break
    assert [name for name in hamlab.__all__ if not hasattr(hamlab, name)] == []
    assert len(set(hamlab.__all__)) == len(hamlab.__all__)
    namespace = {}
    exec("from hamlab import *", namespace)
    assert set(hamlab.__all__) <= set(namespace)
