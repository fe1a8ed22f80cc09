"""Every name a package module imports is used there.

A module other than ``__init__`` (which imports to re-export) must read each
name it imports, unless the import line carries ``# noqa: F401``.  This is
the unused-import rule of a linter, restated on the AST so that it runs with
the test suite.
"""

import ast
from pathlib import Path

import pytest

from conftest import SRC

MODULES = sorted(p for p in (Path(SRC) / "qmarkov").glob("*.py") if p.name != "__init__.py")


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
