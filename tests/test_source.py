"""Static checks on the package source, by ``ast`` alone."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "shmod"

#: ``__init__.py`` is left out: the names it imports are the package's exports.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by an import statement and never read as a name."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_unused_import_scan_finds_stranded_names():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os\n"
                     "import numpy as np\n"
                     "from .grid import Grid, RealField\n"
                     "def f(g: Grid):\n"
                     "    return np.fft.rfft(g.x)\n")
    assert _unused_imports(tree) == ["RealField (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _unreferenced_definitions(sources: dict) -> list:
    """Top-level functions and classes of the modules in ``sources`` (name
    -> source text) that no other code of those modules names: as a name,
    an attribute or an imported name.  A definition's own body does not
    count as a use."""
    defined, used = [], set()
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
                defined.append((module, stmt.name))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != owner:
                    used.add(name)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in used)


def test_unreferenced_definition_scan_finds_stranded_names():
    sources = {"a": "def used():\n    return 1\n"
                    "def recursive(n):\n    return recursive(n - 1)\n"
                    "class Stranded:\n    pass\n",
               "b": "from .a import used\n"
                    "def caller():\n    return used()\n"
                    "caller()\n"}
    assert _unreferenced_definitions(sources) == ["a.Stranded", "a.recursive"]


def test_every_definition_is_referenced_in_the_package():
    # ``__init__`` is left out, so a name that only the exports and the
    # tests read is dead surface.  The one exception is the exact draw of
    # W_{L_eps}(T), on which the acceptance tests measure the law of the
    # stochastic convolution.
    sources = {p.stem: p.read_text() for p in MODULES}
    assert _unreferenced_definitions(sources) == [
        "noise.stochastic_convolution_sample"]
