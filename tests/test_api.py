import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import ecolab

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(ecolab.__path__, "ecolab."))


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_import_leaves_urllib_unloaded():
    # xml.sax.saxutils imports urllib.request, and with it http.client, ssl and email
    src = os.path.dirname(os.path.dirname(ecolab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, ecolab; print(ecolab.__file__); print('urllib.request' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out == f"{ecolab.__file__}\nFalse\n"
