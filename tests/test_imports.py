"""Every module of the package uses each name it imports, and none holds an
``assert`` statement.

Read with the standard library's ``ast``: a name counts as used when the
module reads it anywhere, annotations included. ``__init__.py`` is left out
of the import check, since its imports are the public names it re-exports,
and so are ``__future__`` imports, which switch on a language feature.

Invariants must hold under ``python -O``, which strips ``assert``. The tier-1
run under ``-O`` cannot see a new one, since it strips the tests' own
assertions too, so the package's sources are read for them here.
"""

import ast
from pathlib import Path

import pytest

import paramcsp

SOURCES = sorted(Path(paramcsp.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os\nfrom math import comb, gcd\nprint(comb(2, 1), os)\n"
    assert unused_imports(source) == ["line 3: gcd"]


def assert_lines(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_asserts(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def test_an_assert_is_found():
    source = "def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x  # assert nothing\n"
    assert assert_lines(source) == [3]
