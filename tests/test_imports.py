"""Import hygiene, checked by AST scans since no linter ships with the package.

Every name a module brings in with ``from ... import`` is used in it, over
``src/`` and ``tests/``; package ``__init__`` files (whose imports are
re-exports) and ``from __future__`` imports are exempt. And every
third-party module the tests import is numpy (the package's own
dependency) or is declared in ``pyproject.toml``'s ``test`` extra.
"""

import ast
import re
import sys
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


def imported_top_modules(source: str) -> set[str]:
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_scan_finds_top_level_modules():
    source = "import os.path\nfrom scipy.special import ndtri\nfrom . import sibling\n"
    assert imported_top_modules(source) == {"os", "scipy"}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_every_third_party_test_import_is_a_declared_test_dependency():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.split(r"[\s<>=!~\[;]", req, maxsplit=1)[0].lower()
                for req in project["optional-dependencies"]["test"]}
    test_files = sorted((ROOT / "tests").rglob("*.py"))
    local = {p.stem for p in test_files} | {"ttlstm"}
    imported = set().union(*(imported_top_modules(p.read_text(encoding="utf-8"))
                             for p in test_files))
    third_party = imported - local - set(sys.stdlib_module_names) - {"__future__"}
    assert {"numpy", "pytest", "hypothesis"} <= third_party
    assert sorted(third_party - declared - {"numpy"}) == []
