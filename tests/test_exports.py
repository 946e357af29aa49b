"""Each submodule's ``__all__`` names exactly its public API, the
package's submodule list names every module file, and README's library
tour names only what exists."""

import importlib
import inspect
import itertools
import re
from pathlib import Path

import pytest

import ttlstm

_WITH_ALL = [name for name in ttlstm._SUBMODULES
             if hasattr(importlib.import_module(f"ttlstm.{name}"), "__all__")]


@pytest.mark.parametrize("name", _WITH_ALL)
def test_all_lists_every_public_function_and_class(name):
    module = importlib.import_module(f"ttlstm.{name}")
    stale = [n for n in module.__all__ if not hasattr(module, n)]
    defined = [n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    unlisted = [n for n in defined if n not in module.__all__]
    assert not stale and not unlisted, f"stale {stale}, unlisted {unlisted}"


def test_submodule_list_names_every_module_file():
    package = Path(ttlstm.__file__).parent
    files = {p.stem for p in package.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(ttlstm._SUBMODULES) == sorted(files)


def _tour_rows():
    """``(module, backticked names)`` per row of README's library-tour table."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    after = readme.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    table = itertools.takewhile(lambda line: line.startswith("|"), after.strip().splitlines())
    rows = [line.strip("|").split("|") for line in table]
    return [(cells[0].strip().strip("`"), re.findall(r"`([^`]+)`", cells[1]))
            for cells in rows if cells[0].strip().startswith("`ttlstm.")]


def test_library_tour_has_a_row_per_submodule():
    modules = [module for module, _ in _tour_rows()]
    assert sorted(modules) == sorted(f"ttlstm.{name}" for name in ttlstm._SUBMODULES
                                     if name != "errors")


@pytest.mark.parametrize("module,names", [pytest.param(m, n, id=m) for m, n in _tour_rows()])
def test_library_tour_names_exist(module, names):
    # a dotted name starting with ``ttlstm`` or a submodule resolves from there,
    # so a bare submodule name is a module reference
    missing = []
    for name in names:
        head, *rest = name.split(".")
        if head == "ttlstm" or head in ttlstm._SUBMODULES:
            obj = importlib.import_module("ttlstm" if head == "ttlstm" else f"ttlstm.{head}")
        else:
            obj, rest = importlib.import_module(module), [head, *rest]
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    assert not missing, f"{module} has no {missing}"
