"""Every name a module brings in with ``from ... import`` is used in it.

No linter ships with the package, so this AST scan stands in for one over
``src/`` and ``tests/``. Package ``__init__`` files (whose imports are
re-exports) and ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
               if p.name != "__init__.py")


def unused_from_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_name():
    assert unused_from_imports("from os import path, sep\nprint(sep)\n") == ["path (line 1)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_from_imports(path):
    assert unused_from_imports(path.read_text(encoding="utf-8")) == []
