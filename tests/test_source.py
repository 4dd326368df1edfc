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
