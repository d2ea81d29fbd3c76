"""Every exported name resolves, so a stale ``__all__`` entry cannot linger;
importing the package pulls in no scipy submodule it does not use; recovery
takes no true law."""

import importlib
import inspect
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


def test_recovery_takes_no_true_law():
    # recovery reads half-line data only; a caller that knows the law scores it
    module = importlib.import_module("whlab.reconstruct")
    functions = [getattr(module, n) for n in module.__all__]
    for fn in filter(inspect.isfunction, functions):
        assert "truth" not in inspect.signature(fn).parameters, fn.__name__
