"""Every name a package module imports is used there, private names cross
modules only where listed, every private definition is read, and every
third-party module imported is a declared dependency.

A module other than ``__init__`` (which imports to re-export) must read each
name it imports, unless the import line carries ``# noqa: F401``.  This is
the unused-import rule of a linter, restated on the AST so that it runs with
the test suite.  A module may import another module's ``_``-prefixed name
only if the pair is in PRIVATE_IMPORTS, and every listed pair is in use.
A ``_``-prefixed function, method or class that the package defines, and
each module-level UPPER_CASE constant, must be read somewhere in the package
besides its own definition, so that removing its last caller removes it too.  A module outside the standard library and
the package must be listed in ``dependencies`` of ``pyproject.toml``, so
an installed but undeclared package cannot become an import.  Singular
values have one path, ``linalg.checked_svd``, the only call of
``np.linalg.svd`` in the package, so no caller skips its input checks, and
the infinity norm one implementation, ``linalg._inf_norms``: the package
calls no ``np.linalg.norm``.
"""

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import SRC

ALL_MODULES = sorted((Path(SRC) / "qmarkov").glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]

# (importing module, imported module, name) of each private name that
# crosses modules
PRIVATE_IMPORTS = {
    ("channels", "linalg", "_inf_norms"),
    ("functionals", "measures", "_kraus_products"),
    ("serialization", "linalg", "_is_integral"),
    ("states", "linalg", "_is_integral"),
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _reads(tree: ast.AST) -> Counter:
    """How often ``tree`` reads each name, as a ``Name``, an ``Attribute`` or
    an import alias."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            reads[node.attr] += 1
        elif isinstance(node, ast.alias):
            reads[node.name] += 1
    return reads


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each ``_``-prefixed (not dunder) function, method or
    class defined in ``sources``, a map of module name to source, that no
    module reads outside the definition itself."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and _is_private(node.name)
        and reads[node.name] == _reads(node)[node.name]
    ]


def test_every_private_definition_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in ALL_MODULES}
    assert unread_private_definitions(sources) == []


def test_the_rule_sees_a_dead_definition():
    sources = {
        "a": ("def _recursive():\n    return _recursive()\n\ndef _called():\n    pass\n\n"
              "class _Box:\n    def __init__(self):\n        self._method()\n\n"
              "    def _method(self):\n        pass\n\n    def _unused(self):\n        pass\n"),
        "b": "from .a import _Box\n_called()\n",
    }
    # a read inside the definition's own body (recursion) does not count;
    # a dunder is never flagged
    assert unread_private_definitions(sources) == ["a._recursive", "a._unused"]


CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def unread_constants(sources: dict[str, str]) -> list[str]:
    """``module.NAME`` of each module-level UPPER_CASE constant assigned in
    ``sources``, a map of module name to source, that no module reads outside
    its own assignment."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return [
        f"{module}.{target.id}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id)
        and reads[target.id] == _reads(node)[target.id]
    ]


def test_every_constant_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in ALL_MODULES}
    assert unread_constants(sources) == []


def test_the_rule_sees_a_dead_constant():
    sources = {
        "a": ("import math\nLOG2 = math.log(2.0)\nTOL: float = 1e-9\nUSED = 2\n"
              "SELF = SELF_REF = 1\n_private = 3\n\ndef f():\n    LOCAL = 4\n"
              "    return USED + LOCAL\n"),
        "b": "from .a import SELF\n",
    }
    # a constant imported elsewhere is read; a function's local is not a
    # module constant, and a lowercase name is left to the other rules
    assert unread_constants(sources) == ["a.LOG2", "a.TOL", "a.SELF_REF"]


def third_party_imports(source: str) -> set[str]:
    """The top-level module names ``source`` imports, other than the standard
    library's, the package's own and relative imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return {name for name in names if name not in sys.stdlib_module_names and name != "qmarkov"}


def declared_dependencies() -> set[str]:
    """The distribution names in ``dependencies`` of ``pyproject.toml``,
    lowercase with ``-`` read as ``_``."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(SRC).parent / "pyproject.toml"
    specs = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
            for spec in specs}


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_third_party_imports_are_declared(path):
    assert third_party_imports(path.read_text(encoding="utf-8")) <= declared_dependencies()


def test_the_rule_sees_an_undeclared_dependency():
    source = ("from __future__ import annotations\nimport math\nimport scipy.linalg\n"
              "from numpy import linalg\nfrom qmarkov.states import random_density\n"
              "from . import measures\n")
    assert third_party_imports(source) == {"numpy", "scipy"}
    assert declared_dependencies() == {"numpy"}


def call_sites(sources: dict[str, str], func: str) -> list[str]:
    """``module:line`` of each call of ``func``, such as ``np.linalg.svd``, in
    ``sources``, a map of module name to source."""
    return [
        f"{module}:{node.lineno}"
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == func
    ]


def test_one_singular_value_path():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in ALL_MODULES}
    sites = call_sites(sources, "np.linalg.svd")
    assert len(sites) == 1 and sites[0].startswith("linalg:")


def test_no_norm_call():
    # the infinity norm has one implementation, linalg._inf_norms
    sources = {p.stem: p.read_text(encoding="utf-8") for p in ALL_MODULES}
    assert call_sites(sources, "np.linalg.norm") == []


def test_the_rule_sees_an_svd_call():
    sources = {"a": "import numpy as np\ns = np.linalg.svd(m, compute_uv=False)\n",
               "b": "svd = np.linalg.svd\nnp.linalg.eigh(m)\n"}
    assert call_sites(sources, "np.linalg.svd") == ["a:2"]


# A CLI compute and sweep on the files of a d = 64 CMI triple, whose sigma
# splits into blocks; numpy.ma (np.unique imports it) and scipy cost
# resident memory and neither is needed.
FOOTPRINT_PROBE = """
import sys
from pathlib import Path
from qmarkov import cli, linalg
from qmarkov.measures import TripartiteState, cmi_as_triple
from qmarkov.serialization import save_channel, save_state
from qmarkov.states import random_density
triple = cmi_as_triple(TripartiteState(random_density((4, 4, 4), seed=1)))
out = Path(sys.argv[1])
files = []
for name, save, obj in (("rho", save_state, triple.rho), ("sigma", save_state, triple.sigma),
                        ("channel", save_channel, triple.channel)):
    save(out / name, obj)
    files += ["--" + name, str(out / name)]
blocked = []
matmul = linalg.BlockMatrix.__matmul__
linalg.BlockMatrix.__matmul__ = lambda self, x: blocked.append(1) or matmul(self, x)
assert cli.main(["compute", "--measure", "delta-max"] + files) == 0
assert cli.main(["sweep", "--measure", "delta-tilde", "--alpha-grid", "0.5:1.5:0.5",
                 "--out", str(out / "sweep.csv")] + files) == 0
assert blocked
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
             or m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_the_block_path_imports_neither_numpy_ma_nor_scipy(src_env, tmp_path):
    done = subprocess.run([sys.executable, "-c", FOOTPRINT_PROBE, str(tmp_path)],
                          capture_output=True, text=True,
                          env=dict(src_env, OPENBLAS_NUM_THREADS="1"), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
