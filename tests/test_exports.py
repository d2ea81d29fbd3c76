"""Every exported name resolves, so a stale ``__all__`` entry cannot linger;
importing the package pulls in no scipy submodule it does not use."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import whlab

MODULES = ["whlab"] + [
    "whlab." + info.name for info in pkgutil.iter_modules(whlab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_import_does_not_load_scipy_signal():
    # scipy.signal alone would roughly double the package's import time
    probe = "import sys, whlab; print('scipy.signal' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
