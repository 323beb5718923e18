"""Source hygiene: every module-level import in the package and the tests is used.

An AST scan stands in for a linter's unused-import rule.  A name counts as
used when the module loads it anywhere (``ast.Name``, which also covers the
root of an attribute chain) or lists it in ``__all__``.  Fixture names taken
as test parameters do not count: pytest finds fixtures in ``conftest.py``
without an import.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "qritz").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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
