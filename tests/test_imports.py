"""Every module-level import in the library is used, and every private helper has a reader.

No linter ships with the test dependencies, so this walks the syntax tree
with the standard library. `__init__.py` is skipped for imports: its
imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "trackcop"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport math\nimport os\nfrom x import a, b as c\nos.sep\nc()\n"
    assert unused_imports(source) == [(2, "math"), (4, "a")]


def _names(node) -> set:
    """Every name a syntax tree refers to: variables, attributes and imported names."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.split(".")[-1])
    return names


def dead_helpers(sources: dict) -> list:
    """(module, name) of each top-level _private function or class no other code names.

    `sources` maps module names to their text; a helper counts as read when
    any top-level statement other than its own definition, in any of the
    modules, refers to its name.
    """
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    statements = [(node, _names(node)) for tree in trees.values() for node in tree.body]
    dead = []
    for mod, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and not any(node.name in names for other, names in statements
                                if other is not node)):
                dead.append((mod, node.name))
    return dead


def test_no_dead_private_helpers():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_helpers(sources) == []


def test_dead_helper_is_reported():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _self_only():\n    _self_only()\n\n"
                "class _Dead:\n    pass\n\ndef __dunder__():\n    pass\n\ndef public():\n    pass\n",
        "b.py": "from .a import _used\n",
        "c.py": "def _read_by_attribute():\n    pass\n\nx = module._read_by_attribute\n",
    }
    assert dead_helpers(sources) == [("a.py", "_self_only"), ("a.py", "_Dead")]
