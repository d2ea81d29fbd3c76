"""Every exported name resolves, so a stale ``__all__`` entry cannot linger."""

import importlib
import pkgutil

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
