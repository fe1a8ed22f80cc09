"""Every name a package module imports is used there, and private names
cross modules only where listed.

A module other than ``__init__`` (which imports to re-export) must read each
name it imports, unless the import line carries ``# noqa: F401``.  This is
the unused-import rule of a linter, restated on the AST so that it runs with
the test suite.  A module may import another module's ``_``-prefixed name
only if the pair is in PRIVATE_IMPORTS, and every listed pair is in use.
"""

import ast
from pathlib import Path

import pytest

from conftest import SRC

ALL_MODULES = sorted((Path(SRC) / "qmarkov").glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]

# (importing module, imported module, name) of each private name that
# crosses modules
PRIVATE_IMPORTS = {
    ("functionals", "linalg", "_power_of"),
    ("measures", "linalg", "_power_of"),
    ("functionals", "measures", "_kraus_products"),
    ("structured", "measures", "_petz"),
    ("structured", "states", "_random_density_matrix"),
    ("suites", "states", "_random_density_matrix"),
}


def unused_imports(source: str) -> list[str]:
    """The imported names of ``source`` that nothing in it reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_rule_sees_an_unused_name():
    source = ("import math\nfrom os import path, sep\nfrom re import escape  # noqa: F401\n"
              "from __future__ import annotations\nprint(sep)\n")
    assert unused_imports(source) == ["line 1: math", "line 2: path"]


def private_imports(source: str, module: str) -> set[tuple[str, str, str]]:
    """(module, imported module, name) for each ``_``-prefixed name ``source``
    imports from another module."""
    return {
        (module, (node.module or "").rsplit(".", 1)[-1], alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if alias.name.startswith("_")
    }


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_private_imports_are_listed(path):
    assert private_imports(path.read_text(encoding="utf-8"), path.stem) <= PRIVATE_IMPORTS


def test_every_listed_private_import_is_made():
    made = set().union(*(private_imports(p.read_text(encoding="utf-8"), p.stem)
                         for p in ALL_MODULES))
    assert made == PRIVATE_IMPORTS


def test_the_rule_sees_a_private_name():
    source = ("from __future__ import annotations\nfrom .divergences import _entropy, as_alpha\n"
              "from qmarkov.linalg import _power_of\n")
    assert private_imports(source, "measures") == {
        ("measures", "divergences", "_entropy"), ("measures", "linalg", "_power_of")}
