"""Every module of the package uses each name it imports, none holds an
``assert`` statement, and none catches every exception but the CLI's last resort.

Read with the standard library's ``ast``: a name counts as used when the
module reads it anywhere, annotations included. ``__init__.py`` is left out
of the import check, since its imports are the public names it re-exports,
and so are ``__future__`` imports, which switch on a language feature.

Invariants must hold under ``python -O``, which strips ``assert``. The tier-1
run under ``-O`` cannot see a new one, since it strips the tests' own
assertions too, so the package's sources are read for them here.

A handler that catches everything can turn a fault into an answer. Only
``cli.run`` may, to report any fault as one error line and exit 4.
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


CATCH_ALL = {"Exception", "BaseException"}


def catch_all_handlers(source: str) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of each handler that catches every
    exception: a bare ``except:``, or ``Exception`` or ``BaseException``,
    alone or in a tuple."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler):
                caught = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                if any(c is None or getattr(c, "id", getattr(c, "attr", None)) in CATCH_ALL for c in caught):
                    found.append((where, child.lineno))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_catch_all_handlers(path):
    handlers = catch_all_handlers(path.read_text(encoding="utf-8"))
    assert [where for where, _ in handlers] == (["run"] if path.name == "cli.py" else []), handlers


def test_a_catch_all_handler_is_found():
    source = (
        "try:\n    pass\nexcept:\n    pass\n"
        "def f():\n"
        "    try:\n        pass\n    except (ValueError, Exception):\n        pass\n"
        "    except builtins.BaseException as exc:\n        pass\n"
        "    except (ValueError, KeyError):  # except Exception\n        pass\n"
    )
    assert catch_all_handlers(source) == [("<module>", 3), ("f", 8), ("f", 10)]
