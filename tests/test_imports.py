"""Stdlib stand-in for a linter's unused-import rule over the engine sources
(``__init__.py`` re-exports by design and is skipped)."""

import ast
from pathlib import Path

import pytest

SRC = sorted(p for p in (Path(__file__).parent.parent / "src" / "hopfc").glob("*.py")
             if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.value.id for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nprint(c)\n") == [(1, "os"), (2, "b")]
