"""Every name an afcsim module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import afcsim

MODULES = ["afcsim"] + [f"afcsim.{info.name}" for info in pkgutil.iter_modules(afcsim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
