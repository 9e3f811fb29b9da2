"""Every import in the package modules, the tests and the benchmark is
used, every module-level private name of the package is read somewhere
in it, and no package module names ``linalg``: its 2x2 algebra is
written in closed form.

No linter is configured for the project, so this scans the source with
the standard-library ``ast`` module.  ``__init__.py`` is skipped by the
import scan: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "phytoperiod").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted(
    (ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("**/*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_scanner_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\nfrom os import path, sep\n"
              "__all__ = ['sep']\nx = np.pi\n")
    assert unused_imports(source) == ["line 2: math", "line 4: path"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def linalg_names(source: str) -> list[str]:
    """The lines where the source names ``linalg``: as a name, an
    attribute, an imported module or an imported name."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [part for alias in node.names for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            names = [*(node.module or "").split("."),
                     *(alias.name for alias in node.names)]
        else:
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
        if "linalg" in names:
            lines.add(node.lineno)
    return [f"line {n}" for n in sorted(lines)]


def test_linalg_scanner_flags_every_spelling():
    source = ("import numpy as np\nimport numpy.linalg\n"
              "from numpy import linalg\nfrom numpy.linalg import solve\n"
              "x = np.linalg.solve\ny = linalg\n# linalg\n")
    assert linalg_names(source) == [f"line {i}" for i in range(2, 7)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_package_module_names_linalg(path):
    assert linalg_names(path.read_text()) == []


def private_names(source: str) -> list[str]:
    """Names bound at module level that start with one underscore."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def read_names(source: str) -> set[str]:
    """Names the source reads, as a variable, an attribute or an import."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
    return used


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    used = set().union(*map(read_names, sources.values()))
    return [f"{name}: {n}" for name, source in sorted(sources.items())
            for n in private_names(source) if n not in used]


def test_private_name_scanner_flags_leftovers():
    sources = {"a.py": ("_LIMIT = 3\n_A, _B = 1, 2\n__all__ = []\n"
                        "def _sample_orbit():\n    return _A\n"
                        "def _finalize():\n    return _sample_orbit()\n"
                        "class _Box:\n    pass\n"),
               "b.py": "from a import _B\nx = obj._LIMIT\n"}
    assert unreferenced_private_names(sources) == ["a.py: _finalize", "a.py: _Box"]


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert sum(len(private_names(s)) for s in sources.values()) > 50
    assert unreferenced_private_names(sources) == []


def test_every_tableau_coefficient_is_read():
    """The Dormand-Prince coefficients are the keys of one dict, which the
    private-name scan does not see into; the stages and the error weights
    of the march read exactly those keys, so an unused or a missing
    coefficient fails here."""
    from phytoperiod import integrator

    read = {name for node, weights in integrator._DP_STAGES
            for name in (node, *weights)} | set(integrator._DP_ERROR)
    assert set(integrator._TABLEAU) == read - {None}
