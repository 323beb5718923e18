"""Source hygiene: every module-level import in the package and the tests is
used, and every module-level name the package defines is read somewhere.

An AST scan stands in for a linter's unused-import rule.  A name counts as
used when the module loads it anywhere (``ast.Name``, which also covers the
root of an attribute chain) or lists it in ``__all__``.  Fixture names taken
as test parameters do not count: pytest finds fixtures in ``conftest.py``
without an import.

A second scan stands in for a dead-code finder.  A function, class or
assigned name at the top level of ``src/qritz/*.py`` (dunders aside) is read
when some file under ``src/``, ``tests/`` or ``bench/`` loads it as a name or
as an attribute of a name bound by an import of the package (``kernels.ORTHO_TOL``
after ``from qritz import kernels``).  Importing it does not count, so a name
kept only by a test import is reported, and neither does an attribute of
another module: ``np.linalg.svd`` does not read a package ``svd``.

A third scan finds dataclass fields nothing reads.  A field of a top-level
``@dataclass`` in ``src/qritz/*.py`` is read when some file under ``src/``,
``tests/`` or ``bench/`` loads an attribute of that name (``rep.sep_full``),
or passes its class by name to ``fields``, ``astuple`` or ``asdict``, which
read every field (the ``StudyRow`` columns).  Passing it to the constructor
or storing it does not count.

A fourth scan finds failures decided in the wrong place.  An ``except``
handler whose types name ``QritzError`` may sit only in ``theory._stage``
(a diagnostics stage leaves its fields None), ``study.run_study`` (a row is
marked failed) and ``cli.main`` (an exit code): elsewhere a handler would
swallow a typed failure that none of them sees.

A fifth scan finds shape faults refused in the wrong place.  ``raise
DimensionMismatch`` and ``raise ZeroVector`` may appear only in
``kernels.py``, which owns the admissions of bases, vectors and directions,
and ``pencil.py``, which admits the pencil's own matrices: every other
module takes its inputs through those admissions.

A sixth scan keeps per-value work in the small space.  ``projection.py``
and ``refined.py`` may load no ``.M``, ``.D``, ``.K`` or ``.W`` attribute:
after ``QuadraticPencil.image`` has formed the basis image, they read only
the projected m x m pencil and the R factor it keeps, so no n-row matrix of
the pencil reaches the work done for each Ritz value.

A seventh scan keeps the package root empty.  ``src/qritz/__init__.py`` holds
no ``import`` or ``from ... import`` statement: the modules are the API, and
every reader imports from the one module that defines a name.

An eighth scan keeps private names private.  No ``from ... import`` under
``src/qritz``, at any depth, names a leading-underscore name (``from .solver
import _helper``): a name that two modules share is public in the module
that defines it.

A ninth scan keeps one usage-error rule for option values.  In ``cli.py``,
``argparse.ArgumentTypeError`` is raised in at most one function, the
converter that turns a library admission's ``ValueError`` into the usage
error: a second raise would be a range or finiteness rule of the CLI's own.

numpy is the package's only runtime dependency: a fresh interpreter that
imports ``qritz`` and ``qritz.cli`` must not have loaded scipy.  Nor does
``qritz example31`` load ``numpy.random``, which numpy imports lazily and
which no golden check needs.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "qritz").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
READERS = [path for top in ("src", "tests", "bench") for path in sorted((ROOT / top).rglob("*.py"))]


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their line numbers."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names the module loads, plus the entries of a module-level ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"line {line}: {name}" for name, line in imported_names(tree).items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_import():
    source = "import os\nimport sys as system\nfrom math import pi, tau\n__all__ = ['tau']\nprint(pi)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: system"]


def test_scan_sees_attribute_roots_and_skips_future():
    source = "from __future__ import annotations\nimport numpy.linalg\nnumpy.linalg.norm([1.0])\n"
    assert unused_imports(source) == []


def test_scan_does_not_count_fixture_parameters():
    source = "from conftest import rng\n\ndef test_x(rng):\n    pass\n"
    assert unused_imports(source) == ["line 1: rng"]


def defined_names(tree: ast.Module) -> dict[str, int]:
    """Functions, classes and assigned names at the module's top level, dunders aside."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if not (name.startswith("__") and name.endswith("__")):
                names[name] = node.lineno
    return names


def package_bindings(tree: ast.Module, packages: set[str]) -> set[str]:
    """Names the module's imports bind to ``packages`` or to a module inside one.

    ``import qritz.study`` binds ``qritz``; ``from qritz import mmio`` and the
    relative ``from . import study`` bind ``mmio`` and ``study``.
    """
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in packages:
                    bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] in packages:
                bound.update(alias.asname or alias.name for alias in node.names)
    return bound


def attribute_root(node: ast.Attribute) -> str | None:
    """The name at the root of an attribute chain (``a`` in ``a.b.c``), if any."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def read_names(tree: ast.Module, packages: set[str]) -> set[str]:
    """Names the module loads, and the attributes it reads off a name bound to ``packages``."""
    bound = package_bindings(tree, packages)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and attribute_root(node) in bound:
            read.add(node.attr)
    return read


def unread_names(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module:line: name`` for each name ``modules`` define that no reader reads.

    The modules form the package ``qritz``; each can also be imported by its
    own name (``import m`` for ``m.py``).
    """
    packages = {"qritz", *(Path(name).stem for name in modules)}
    read = set().union(*(read_names(ast.parse(source), packages) for source in readers))
    return [
        f"{module}:{line}: {name}"
        for module, source in modules.items()
        for name, line in defined_names(ast.parse(source)).items()
        if name not in read
    ]


def test_every_package_name_is_read():
    modules = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    readers = [path.read_text(encoding="utf-8") for path in READERS]
    assert unread_names(modules, readers) == []


def test_name_scan_flags_an_unread_name():
    module = "TOL = 1e-13\nUSED = 2\n\ndef helper():\n    return USED\n\nclass Box:\n    pass\n"
    readers = [module, "from m import TOL\nimport m\nm.helper()\n"]
    assert unread_names({"m.py": module}, readers) == ["m.py:1: TOL", "m.py:7: Box"]
    # An attribute of another module does not read the package's name of the same spelling.
    readers = [module, "import numpy as np\nnp.linalg.helper()\nnp.Box\n"]
    assert unread_names({"m.py": module}, readers) == ["m.py:1: TOL", "m.py:4: helper", "m.py:7: Box"]
    readers = [module, "import qritz.m as mm\nmm.helper()\n", "from . import m\nm.Box\n"]
    assert unread_names({"m.py": module}, readers) == ["m.py:1: TOL"]


def is_dataclass_decorator(node: ast.expr) -> bool:
    """``@dataclass``, ``@dataclass(...)`` or ``@dataclasses.dataclass(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr == "dataclass"
    return isinstance(node, ast.Name) and node.id == "dataclass"


def dataclass_fields(tree: ast.Module) -> list[tuple[str, str, int]]:
    """``(class, field, line)`` for each annotated field of a top-level dataclass."""
    return [
        (node.name, stmt.target.id, stmt.lineno)
        for node in tree.body
        if isinstance(node, ast.ClassDef) and any(map(is_dataclass_decorator, node.decorator_list))
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


WHOLE_RECORD_READERS = {"fields", "astuple", "asdict"}


def field_reads(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Attribute names the module loads, and the names it passes to a whole-record reader."""
    attributes, passed = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in WHOLE_RECORD_READERS:
                passed.update(arg.id for arg in node.args if isinstance(arg, ast.Name))
    return attributes, passed


def unread_fields(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module:line: Class.field`` for each dataclass field that no reader reads."""
    attributes, passed = set(), set()
    for source in readers:
        got_attributes, got_passed = field_reads(ast.parse(source))
        attributes |= got_attributes
        passed |= got_passed
    return [
        f"{module}:{line}: {cls}.{name}"
        for module, source in modules.items()
        for cls, name, line in dataclass_fields(ast.parse(source))
        if name not in attributes and cls not in passed
    ]


def test_every_dataclass_field_is_read():
    modules = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    readers = [path.read_text(encoding="utf-8") for path in READERS]
    assert unread_fields(modules, readers) == []


def test_field_scan_flags_an_unread_field():
    module = (
        "from dataclasses import dataclass\n\n@dataclass(frozen=True)\nclass Row:\n"
        "    kept: float\n    lost: float\n\n@dataclass\nclass Table:\n    rows: list\n"
    )
    readers = [module, "def f(r):\n    return r.kept\n", "Row(kept=1.0, lost=2.0)\n"]
    assert unread_fields({"m.py": module}, readers) == ["m.py:6: Row.lost", "m.py:10: Table.rows"]
    # A store is not a read; a class passed to dataclasses.fields has every field read.
    readers = [module, "import dataclasses\nr.lost = 1.0\nr.kept\ndataclasses.fields(Table)\n"]
    assert unread_fields({"m.py": module}, readers) == ["m.py:6: Row.lost"]


#: The functions that decide what a ``QritzError`` means, as ``module:function``.
FAILURE_DECIDERS = {"theory.py:_stage", "study.py:run_study", "cli.py:main"}


def qritz_error_handlers(tree: ast.Module) -> set[str]:
    """The innermost function (or ``<module>``) around each handler that names ``QritzError``."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                named = {
                    n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(child.type)
                    if isinstance(n, (ast.Name, ast.Attribute))
                }
                if "QritzError" in named:
                    found.add(scope)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else scope)

    visit(tree, "<module>")
    return found


def stray_failure_handlers(modules: dict[str, str], deciders: set[str]) -> list[str]:
    """``module:function`` for each ``QritzError`` handler outside ``deciders``."""
    return sorted(
        f"{module}:{scope}"
        for module, source in modules.items()
        for scope in qritz_error_handlers(ast.parse(source))
        if f"{module}:{scope}" not in deciders
    )


def test_qritz_errors_are_caught_only_where_a_failure_is_decided():
    modules = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert stray_failure_handlers(modules, FAILURE_DECIDERS) == []


def test_handler_scan_flags_a_stray_handler():
    module = (
        "from . import errors\nfrom .errors import QritzError\n\n"
        "def _stage(run):\n    try:\n        return run()\n    except QritzError:\n        return None\n\n"
        "def quiet():\n    try:\n        pass\n    except (ValueError, errors.QritzError):\n        pass\n\n"
        "    def inner():\n        try:\n            pass\n        except QritzError as exc:\n            pass\n\n"
        "def narrow():\n    try:\n        pass\n    except errors.Singular:\n        pass\n    except:\n        pass\n\n"
        "try:\n    pass\nexcept QritzError:\n    pass\n"
    )
    assert stray_failure_handlers({"m.py": module}, {"m.py:_stage"}) == [
        "m.py:<module>",
        "m.py:inner",
        "m.py:quiet",
    ]


#: The modules that own the admissions, the only ones that raise their shape errors.
ADMISSION_OWNERS = {"kernels.py", "pencil.py"}
ADMISSION_ERRORS = {"DimensionMismatch", "ZeroVector"}


def admission_raises(tree: ast.Module) -> list[int]:
    """The line of each ``raise`` of an admission error, called or not, by name or attribute."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name in ADMISSION_ERRORS:
                lines.append(node.lineno)
    return sorted(lines)


def stray_admission_raises(modules: dict[str, str], owners: set[str]) -> list[str]:
    """``module:line`` for each admission error raised outside ``owners``."""
    return [
        f"{module}:{line}"
        for module, source in sorted(modules.items())
        if module not in owners
        for line in admission_raises(ast.parse(source))
    ]


def test_shape_faults_are_raised_only_by_the_admissions():
    modules = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert stray_admission_raises(modules, ADMISSION_OWNERS) == []


def test_admission_scan_flags_a_stray_raise():
    module = (
        "from . import errors\nfrom .errors import DimensionMismatch, ZeroVector\n\n"
        "def f(x):\n    if x:\n        raise DimensionMismatch('rows')\n"
        "    raise errors.ZeroVector\n\n"
        "def g():\n    raise ValueError('other errors are not admissions')\n"
    )
    owner = "def h():\n    raise ZeroVector('zero')\n"
    modules = {"m.py": module, "kernels.py": owner}
    assert stray_admission_raises(modules, {"kernels.py"}) == ["m.py:6", "m.py:7"]
    assert stray_admission_raises(modules, {"kernels.py", "m.py"}) == []


#: The modules of per-value work, and the n-row attributes they may not load.
SMALL_SPACE_MODULES = {"projection.py", "refined.py"}
N_ROW_ATTRIBUTES = {"M", "D", "K", "W"}


def n_row_loads(modules: dict[str, str], scanned: set[str]) -> list[str]:
    """``module:line: .attr`` for each n-row attribute a scanned module loads."""
    found = []
    for module, source in sorted(modules.items()):
        if module in scanned:
            loads = [
                node
                for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node.attr in N_ROW_ATTRIBUTES
            ]
            loads.sort(key=lambda node: (node.lineno, node.col_offset))
            found += [f"{module}:{node.lineno}: .{node.attr}" for node in loads]
    return found


def test_per_value_work_reads_no_n_row_matrix():
    modules = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert n_row_loads(modules, SMALL_SPACE_MODULES) == []


def test_n_row_scan_flags_a_pencil_matrix():
    module = (
        "def f(p, image, pp):\n    M = image.projected[:, :2]\n    r = image.R @ M\n"
        "    w = p.image(pp.basis).W\n    return p.D @ w + pp.pencil.K\n\n"
        "def g(p):\n    p.M = None\n    return p.Mass\n"
    )
    modules = {"m.py": module, "other.py": "x = p.M\n"}
    assert n_row_loads(modules, {"m.py"}) == ["m.py:4: .W", "m.py:5: .D", "m.py:5: .K"]


def import_lines(source: str) -> list[int]:
    """The line of each ``import`` or ``from ... import`` statement, at any depth."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )


def test_package_root_imports_nothing():
    assert import_lines((ROOT / "src" / "qritz" / "__init__.py").read_text(encoding="utf-8")) == []


def test_import_scan_flags_a_re_export():
    source = '"""Doc."""\n\nfrom .pencil import QuadraticPencil\n\ndef f():\n    import os\n'
    assert import_lines(source) == [3, 6]
    assert import_lines('"""Doc."""\n') == []


def private_imports(modules: dict[str, str]) -> list[str]:
    """``module:line: from x import _y`` for each leading-underscore name a module imports."""
    found = []
    for module, source in sorted(modules.items()):
        nodes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)]
        for node in sorted(nodes, key=lambda node: node.lineno):
            origin = "." * node.level + (node.module or "")
            found += [
                f"{module}:{node.lineno}: from {origin} import {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_no_module_imports_a_private_name():
    modules = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert private_imports(modules) == []


def test_private_import_scan_flags_a_planted_import():
    module = (
        "from .kernels import as_scalar, _right_singulars\n\n"
        "def f():\n    from . import _pairs\n    from numpy import linalg\n"
    )
    modules = {"m.py": module, "other.py": "import _thread\nfrom .solver import solve_full\n"}
    assert private_imports(modules) == [
        "m.py:1: from .kernels import _right_singulars",
        "m.py:4: from . import _pairs",
    ]


def type_error_raisers(source: str) -> list[str]:
    """The innermost function around each ``raise`` of ``ArgumentTypeError``, once each."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                if name == "ArgumentTypeError" and scope not in found:
                    found.append(scope)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else scope)

    visit(ast.parse(source), "<module>")
    return found


def test_cli_raises_argument_type_errors_in_one_function():
    source = (ROOT / "src" / "qritz" / "cli.py").read_text(encoding="utf-8")
    assert len(type_error_raisers(source)) <= 1


def test_type_error_scan_flags_a_second_raiser():
    source = (
        "import argparse\nfrom argparse import ArgumentTypeError\n\n"
        "def _typed(admit):\n    def convert(text):\n        try:\n            return admit(text)\n"
        "        except ValueError as exc:\n            raise argparse.ArgumentTypeError(str(exc))\n"
        "    return convert\n\n"
        "def _positive(text):\n    if int(text) < 1:\n        raise ArgumentTypeError('low')\n"
        "    raise ArgumentTypeError\n\n"
        "def _other(text):\n    raise ValueError(text)\n"
    )
    assert type_error_raisers(source) == ["convert", "_positive"]


def test_import_loads_no_scipy():
    probe = (
        "import sys, qritz, qritz.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    r = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, env=child_env(), timeout=120
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.decode().strip() == "[]"


def test_example31_loads_no_numpy_random():
    probe = (
        "import contextlib, io, sys; from qritz import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['example31'])\n"
        "print(code, 'numpy.random' in sys.modules)"
    )
    r = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, env=child_env(), timeout=120
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.decode().strip() == "0 False"
