"""Every import in the package modules, the tests and the benchmark is
used, every module-level private name of the package is read somewhere
in it, no package module names ``linalg``: its 2x2 algebra is written in
closed form, no package module imports scipy, which only the tests use,
no package module compares a value with the name of a reproduction
bundle: a bundle's checks are its golden file's rows, and no package
module but ``integrator`` takes a private name of ``integrator`` except
the one run kind that ``orbit`` hands it.

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


def scipy_imports(source: str) -> list[str]:
    """The lines where the source imports scipy or one of its modules: by
    an import statement, or by ``__import__`` or ``import_module`` of a
    literal name."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [] if node.level else [node.module]
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("__import__", "import_module")):
            names = [node.args[0].value]
        else:
            continue
        if any(str(name).split(".")[0] == "scipy" for name in names):
            lines.add(node.lineno)
    return [f"line {n}" for n in sorted(lines)]


def test_scipy_scanner_flags_every_import():
    source = ("import numpy as np\nimport scipy\nimport os, scipy.integrate\n"
              "from scipy import linalg\n"
              "from scipy.integrate._ivp import dop853_coefficients\n"
              "m = importlib.import_module('scipy.special')\n"
              "n = __import__('scipy')\n"
              "from .scipy import x\nscipy = 1\nimport scipyx\n"
              "o = importlib.import_module('numpy')\n")
    assert scipy_imports(source) == [f"line {i}" for i in range(2, 8)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_package_module_imports_scipy(path):
    """scipy stays a test dependency: the package needs only numpy."""
    assert scipy_imports(path.read_text()) == []


def bundle_name_comparisons(source: str, bundles) -> list[str]:
    """The lines where the source compares a value with a bundle name:
    in a comparison, alone or in a literal tuple, list or set, or as a
    ``case`` pattern."""
    def names(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return [n for elt in node.elts for n in names(elt)]
        return [node.value] if isinstance(node, ast.Constant) else []

    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        else:
            continue
        if any(n in bundles for op in operands for n in names(op)):
            lines.add(node.lineno)
    return [f"line {n}" for n in sorted(lines)]


def test_bundle_name_scanner_flags_every_comparison():
    source = ("BUNDLES = {'a': 1, 'b': 2}\n"
              "if which == 'a':\n    pass\n"
              "x = 'b' != which\n"
              "y = which in ('c', 'b')\n"
              "match which:\n    case 'a':\n        pass\n"
              "z = which == 'c' or BUNDLES['a']\n")
    assert bundle_name_comparisons(source, {"a", "b"}) == [
        "line 2", "line 4", "line 5", "line 7"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_package_module_branches_on_a_bundle_name(path):
    """Each bundle's checks are the rows of its golden file, so no
    package module tells the bundles apart by name."""
    from phytoperiod import cli

    assert bundle_name_comparisons(path.read_text(), set(cli._BUNDLED)) == []


def private_integrator_names(source: str) -> list[str]:
    """The ``_``-prefixed names of ``integrator`` that the source takes:
    by importing them from it, or as attributes of the module imported by
    name."""
    tree = ast.parse(source)
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "integrator":
                names |= {alias.name for alias in node.names}
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "integrator"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add(node.attr)
    return sorted(n for n in names if n.startswith("_"))


def test_private_integrator_name_scanner_flags_every_spelling():
    source = ("from .integrator import _Augmented, flow_map\n"
              "from phytoperiod.integrator import _dense_step\n"
              "from . import integrator as itg\n"
              "x = itg._dp_march(2, 'plain'), itg.integrate\n"
              "from .model import _private\n")
    assert private_integrator_names(source) == [
        "_Augmented", "_dense_step", "_dp_march"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_integrator_reads_its_private_names(path):
    """Which march steps a run is the integrator's decision alone, so no
    other package module reaches into it."""
    assert private_integrator_names(path.read_text()) == []


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
    """The coefficients of DOP853 are the keys of one dict, which the
    private-name scan does not see into.  The compiled code reads them as
    globals: the plain march (its stages, error weights and dense output)
    reads exactly those keys, and so do the variational march and the
    after-the-fact dense step together, so an unused or a missing
    coefficient fails here."""
    from phytoperiod import integrator

    def read(function):
        return {n for n in function.__code__.co_names if n.startswith("D_")}

    keys = set(integrator._TABLEAU)
    assert read(integrator._dp_march(1, "plain")) == keys
    assert (read(integrator._dp_march(6, "variational"))
            | read(integrator._dense_step())) == keys
