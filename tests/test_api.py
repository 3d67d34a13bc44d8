import importlib
import pkgutil

import pytest

import ecolab

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(ecolab.__path__, "ecolab."))


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
