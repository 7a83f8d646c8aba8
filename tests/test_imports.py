"""Every module-level import in the library is used, and every definition has a reader.

No linter ships with the test dependencies, so this walks the syntax tree
with the standard library. `__init__.py` is skipped for imports: its
imports are the package's re-exports. A private top-level helper must be
named by the library itself; any other function, method or property by the
library, its tests or the benchmark, and one that only tests name must be
listed in UNCALLED_PUBLIC with its reason. No dataclass that holds arrays
defines `__eq__` or `__hash__`. Only funcspace knows that np.interp copies a
locked array: PLFunction's writeable aliases `_wx` and `_wy` are named
elsewhere only by construction.region_functions, which hands them to an
array kernel.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from trackcop.canonical import PsiBounds, PsiCandidate
from trackcop.construction import CopulaCpsi, GridCopula
from trackcop.funcspace import PLFunction
from trackcop.splice import SplicedFunction
from trackcop.trackmodel import DiagonalSpec, Track

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "trackcop"
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


def _names(node) -> Counter:
    """How often a syntax tree refers to each name: variables, attributes and imported names."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.alias):
            names[n.name.split(".")[-1]] += 1
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


def _functions(node, prefix=""):
    """(qualified name, node) of each function, method and property defined under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not isinstance(child, ast.ClassDef):
                yield prefix + child.name, child
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix)


def unnamed_functions(sources: dict, defining) -> list:
    """(file, qualified name) of each non-dunder function in the `defining` files that no code names.

    `sources` maps file names to their text. A function counts as named when
    any of the sources refers to its name outside its own definition, so
    calling itself does not count.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    refs = sum((_names(tree) for tree in trees.values()), Counter())
    return [(name, qualname) for name in defining
            for qualname, node in _functions(trees[name])
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and refs[node.name] == _names(node)[node.name]]


def test_every_function_is_named():
    files = [*SRC.glob("*.py"), *(ROOT / "tests").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in sorted(files)}
    library = [name for name in sources if name.startswith("src")]
    assert unnamed_functions(sources, library) == []


# Public functions that neither the library nor the benchmark calls, each with
# why it stays. Tests and the package's re-exports do not count as callers.
UNCALLED_PUBLIC = {
    ("src/trackcop/canonical.py", "PsiCandidate.chi"):
        "the canonical quadruplet's public companion",
    ("src/trackcop/canonical.py", "PsiCandidate.xi"):
        "the canonical quadruplet's public companion",
    ("src/trackcop/cli.py", "read_grid"):
        "the grid file API; the CLI streams through _grid_rows",
    ("src/trackcop/cli.py", "write_grid"):
        "the grid file API; the CLI streams through _write_table",
    ("src/trackcop/verification.py", "extract_psi"):
        "the paper's map C -> psi_C, whose sink dominating_envelope runs",
}


def test_every_uncalled_public_function_is_listed():
    files = [*(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
             *(ROOT / "bench").rglob("*.py")]
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in sorted(files)}
    library = [name for name in sources if name.startswith("src")]
    assert sorted(unnamed_functions(sources, library)) == sorted(UNCALLED_PUBLIC)


def test_unnamed_function_is_reported():
    sources = {
        "lib.py": "class A:\n    def used(self):\n        pass\n\n"
                  "    @property\n    def unread(self):\n        return self\n\n"
                  "    def __repr__(self):\n        return ''\n\n"
                  "def recursive(n):\n    return recursive(n - 1)\n\n"
                  "def outer():\n    def inner():\n        pass\n    return inner\n",
        "test_lib.py": "from lib import A, outer\nA().used()\n",
    }
    assert unnamed_functions(sources, ["lib.py"]) == [("lib.py", "A.unread"),
                                                      ("lib.py", "recursive")]


ALIAS_NAMES = ("_aliased", "_locked", "_wx", "_wy")


def alias_uses(sources: dict) -> list:
    """(module, top-level definition, name) for each of ALIAS_NAMES named outside funcspace.py.

    A statement that defines nothing, such as an import, is labelled by its line.
    """
    uses = []
    for mod, text in sources.items():
        if mod == "funcspace.py":
            continue
        for node in ast.parse(text).body:
            names, label = _names(node), getattr(node, "name", f"line {node.lineno}")
            uses += [(mod, label, name) for name in ALIAS_NAMES if names[name]]
    return uses


def test_only_funcspace_handles_np_interp_aliases():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert alias_uses(sources) == [("construction.py", "region_functions", "_wx"),
                                   ("construction.py", "region_functions", "_wy")]


def test_alias_use_is_reported():
    sources = {
        "funcspace.py": "def _locked(a):\n    return a._wx\n",
        "a.py": "from .funcspace import _locked\n\nclass K:\n    def f(self, g):\n"
                "        return g._wy\n",
    }
    assert alias_uses(sources) == [("a.py", "line 1", "_locked"), ("a.py", "K", "_wy")]


ARRAY_HOLDERS = [PLFunction, Track, DiagonalSpec, PsiCandidate, PsiBounds, GridCopula,
                 CopulaCpsi, SplicedFunction]


@pytest.mark.parametrize("cls", ARRAY_HOLDERS, ids=lambda cls: cls.__name__)
def test_array_holders_define_no_eq_or_hash(cls):
    # value equality of array fields can only raise, and generating the two
    # methods costs every import; == and hash are object's identity
    assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)
    assert cls.__dataclass_params__.frozen
