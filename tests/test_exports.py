"""Each submodule's ``__all__`` names exactly its public API, and the
package's submodule list names every module file."""

import importlib
import inspect
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
