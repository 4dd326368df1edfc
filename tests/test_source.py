"""Static checks on the package source, by ``ast`` alone."""
import ast
from pathlib import Path

import pytest

from shmod.studies import STUDY_NAMES

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


#: annotations of a parameter that carries a grid, and with it an eps
GRID_TYPES = {"Grid", "RealField", "ComplexField"}


def _eps_beside_grid(tree: ast.Module) -> list:
    """Functions and methods that take ``eps`` next to a grid (a parameter
    named ``grid`` or annotated with a type in ``GRID_TYPES``), and fields
    named ``eps`` in a class body: each a second source of the eps that
    the grid's carrier fixes."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix + getattr(child, "name", "")
            if isinstance(child, ast.ClassDef):
                for stmt in child.body:
                    targets = ([stmt.target] if isinstance(stmt, ast.AnnAssign)
                               else getattr(stmt, "targets", []))
                    if any(getattr(t, "id", None) == "eps" for t in targets):
                        found.append(f"{name}.eps")
                visit(child, name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                grid_like = any(
                    p.arg == "grid" or p.annotation is not None and any(
                        getattr(n, "id", getattr(n, "attr", None)) in GRID_TYPES
                        for n in ast.walk(p.annotation))
                    for p in params)
                if grid_like and any(p.arg == "eps" for p in params):
                    found.append(name)
                visit(child, name + ".")
            else:
                visit(child, prefix)
    visit(tree, "")
    return found


def test_eps_beside_grid_scan_finds_second_sources():
    tree = ast.parse("class Params:\n"
                     "    eps: float = 0.1\n"
                     "    nu = 0.0\n"
                     "class Grid:\n"
                     "    @property\n"
                     "    def eps(self):\n        return 0.1\n"
                     "    def scaled(self, grid, eps):\n        return eps\n"
                     "def symbol(K, eps):\n    return eps * K\n"
                     "def from_grid(grid, delta):\n    return grid.eps\n"
                     "def shifted(f: RealField | ComplexField, eps=0.1):\n"
                     "    return f\n"
                     "if True:\n"
                     "    def kernel(which, eps, g: mod.Grid):\n"
                     "        return g\n")
    assert _eps_beside_grid(tree) == ["Params.eps", "Grid.scaled", "shifted",
                                      "kernel"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_eps_is_read_from_the_grid(path):
    assert _eps_beside_grid(ast.parse(path.read_text())) == []


#: the bodies of the worker thread's jobs, as (module, class, method).  A
#: background thread making many small numpy calls was measured to slow
#: the stepping thread 1.7 times, against 1.1 times for GIL-free FFT or
#: Philox work, so a job takes each block in a few large calls
WORKER_JOBS = [("analysis", "PairedDiagnostics", "run")]

LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.comprehension)


def _loops_in_method(tree: ast.Module, cls: str, method: str) -> list:
    """Line numbers of the loops, comprehensions included, in the body of
    ``cls.method``; a KeyError if there is no such method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.name == method:
                    return [getattr(n, "lineno", None) or n.target.lineno
                            for n in ast.walk(stmt) if isinstance(n, LOOPS)]
    raise KeyError(f"{cls}.{method}")


def test_loop_scan_finds_loops_in_a_method():
    tree = ast.parse("class Job:\n"
                     "    def add(self, rows):\n"
                     "        for row in rows:\n"
                     "            pass\n"
                     "        while rows:\n"
                     "            rows = rows[1:]\n"
                     "        return [r for r in rows]\n"
                     "    def other(self, rows):\n"
                     "        for row in rows:\n"
                     "            pass\n"
                     "class Flat:\n"
                     "    def add(self, rows):\n"
                     "        return sum(rows)\n")
    assert _loops_in_method(tree, "Job", "add") == [3, 5, 7]
    assert _loops_in_method(tree, "Flat", "add") == []
    with pytest.raises(KeyError):
        _loops_in_method(tree, "Flat", "other")


@pytest.mark.parametrize("module, cls, method", WORKER_JOBS,
                         ids=lambda x: x)
def test_worker_jobs_run_no_python_loop(module, cls, method):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert _loops_in_method(tree, cls, method) == []


def _names_the_worker(tree: ast.Module) -> list:
    """Line numbers where ``run_on_worker`` is named: called, read or
    imported.  ``integrate`` alone submits to the worker, so that the
    block size, the look-ahead and the hand-over have one owner."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if "run_on_worker" in (getattr(node, "id", None),
                                         getattr(node, "attr", None))
                  or isinstance(node, ast.ImportFrom) and any(
                      alias.name == "run_on_worker" for alias in node.names))


def test_worker_scan_finds_calls_reads_and_imports():
    tree = ast.parse("from .sh import integrate, run_on_worker\n"
                     "from . import sh\n"
                     "future = run_on_worker(job, 1)\n"
                     "later = sh.run_on_worker(job)\n"
                     "submit = run_on_worker\n"
                     "run_on_worker_count = 0\n")
    assert _names_the_worker(tree) == [1, 3, 4, 5]


def test_only_integrate_submits_to_the_worker():
    assert [p.name for p in MODULES
            if _names_the_worker(ast.parse(p.read_text()))] == ["sh.py"]


#: the dense layout's size limit and a ``PaddedGrid``'s dense matrices
DENSE_NAMES = {"DENSE_MAX", "inverse", "update_matrix"}


def _names_the_dense_layout(tree: ast.Module) -> list:
    """Line numbers where a name of ``DENSE_NAMES`` is named: read,
    written or imported.  ``operators`` alone decides the layout of the
    padded grid and steps it, so that the dense matrices have one owner."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if {getattr(node, "id", None), getattr(node, "attr", None)}
                  & DENSE_NAMES
                  or isinstance(node, ast.ImportFrom) and any(
                      alias.name in DENSE_NAMES for alias in node.names))


def test_dense_layout_scan_finds_names_reads_and_imports():
    tree = ast.parse("from .operators import DENSE_MAX, PaddedGrid\n"
                     "from . import operators\n"
                     "dense = n <= operators.DENSE_MAX\n"
                     "m = stepper.padded.inverse\n"
                     "u = padded.update_matrix[0]\n"
                     "inverse_count = 0\n"
                     "padded.inverse_of = m\n"
                     "if n <= DENSE_MAX:\n"
                     "    pass\n")
    assert _names_the_dense_layout(tree) == [1, 3, 4, 5, 8]


def test_only_operators_names_the_dense_layout():
    assert [p.name for p in MODULES
            if _names_the_dense_layout(ast.parse(p.read_text()))] == [
        "operators.py"]


def _study_name_tests(tree: ast.Module, names) -> list:
    """Line numbers of the comparisons with a study name, or with a tuple,
    list or set that holds one: each a study's behaviour decided outside
    its entry in ``studies.STUDIES``."""
    def names_a_study(node):
        if isinstance(node, ast.Constant):
            return isinstance(node.value, str) and node.value in names
        return (isinstance(node, (ast.Tuple, ast.List, ast.Set))
                and any(names_a_study(elt) for elt in node.elts))

    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Compare)
                  and any(map(names_a_study, [node.left, *node.comparators])))


def test_study_name_scan_finds_dispatch_on_a_name():
    tree = ast.parse('if cfg.study == "theorem2":\n'
                     '    pass\n'
                     'landau = study in ("landau-sweep", "quintic-suite")\n'
                     'other = "gl-limit" != name\n'
                     'spec = STUDIES["averaging"]\n'
                     'named = key in ("study", "out")\n'
                     'quintic = variant == "quintic"\n')
    assert _study_name_tests(tree, STUDY_NAMES) == [1, 3, 4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_compares_a_study_name(path):
    assert _study_name_tests(ast.parse(path.read_text()), STUDY_NAMES) == []


def _variant_reads(tree: ast.Module) -> list:
    """Line numbers of the reads of an attribute named ``variant``: each a
    decision on the model taken outside ``ModelParams.polynomial``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and node.attr == "variant")


def test_variant_scan_finds_attribute_reads():
    tree = ast.parse('if p.variant == "cubic":\n'
                     '    pass\n'
                     'variant = "quintic"\n'
                     'q = ModelParams(variant=variant)\n'
                     'kinds = [q.variant for q in params]\n'
                     'self.variant = variant\n')
    assert _variant_reads(tree) == [1, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_sh_reads_the_variant(path):
    # the coefficient table of ModelParams is the one place that turns the
    # variant into a model
    reads = _variant_reads(ast.parse(path.read_text()))
    assert bool(reads) == (path.name == "sh.py"), reads
