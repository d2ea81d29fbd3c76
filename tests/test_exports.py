"""Every exported name resolves, so a stale ``__all__`` entry cannot linger,
and the package re-exports each public module's ``__all__``; importing the package, running the commands that never recover and the
moment probes load no scipy; recovery takes no true law."""

import importlib
import inspect
import json
import pkgutil
import subprocess
import sys

import pytest

import whlab
from conftest import child_env

MODULES = ["whlab"] + [
    "whlab." + info.name for info in pkgutil.iter_modules(whlab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_reexports_each_public_module():
    # cli stays out; each other module's __all__ is its public surface
    public = [n for n in MODULES if n not in ("whlab", "whlab.cli")]
    for name in public:
        module = importlib.import_module(name)
        for attr in module.__all__:
            assert getattr(whlab, attr) is getattr(module, attr), (name, attr)
    assert sorted(whlab.__all__) == sorted(
        ["__version__"]
        + [n for name in public for n in importlib.import_module(name).__all__]
    )
    assert len(set(whlab.__all__)) == len(whlab.__all__)
    # the function, not the submodule of the same name
    assert inspect.isfunction(whlab.lattice)


def test_import_does_not_load_scipy_signal():
    # scipy.signal alone would roughly double the package's import time
    probe = "import sys, whlab; print('scipy.signal' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=child_env(),
    )
    assert result.stdout.strip() == "False"


def _scipy_modules_after(script):
    """scipy module names loaded once ``script`` ran in a fresh interpreter."""
    probe = script + (
        "\nimport sys"
        "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=child_env(),
    )
    return result.stdout.strip().splitlines()[-1]


def test_import_does_not_load_scipy():
    # only recovery calls scipy, and it imports it on use
    assert _scipy_modules_after("import whlab") == "[]"


def test_verify_factorize_simulate_do_not_load_scipy(tmp_path):
    law = {"family": "two_point", "parameters": {"down": -1, "up": 1, "p_up": 0.6}}
    # simulate refuses power_tail_pair, whose cut-off tail leaves it improper
    tail = {"family": "power_tail_pair", "parameters": {"cutoff": 40}}
    runs = [
        ("verify", {"distribution": law, "horizon": 40}),
        ("factorize", {"distribution": law, "horizon": 40}),
        ("simulate", {"distribution": law, "n_samples": 2000, "max_steps": 200}),
        ("verify", {"distribution": tail, "horizon": 40}),
        ("factorize", {"distribution": tail, "horizon": 40}),
    ]
    lines = ["from whlab.cli import main"]
    for i, (command, doc) in enumerate(runs):
        cfg = tmp_path / ("%d.json" % i)
        cfg.write_text(json.dumps(doc))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / str(i))]
        lines.append("assert main(%r) == 0" % argv)
    assert _scipy_modules_after("\n".join(lines)) == "[]"


def test_moment_probes_do_not_load_scipy():
    # the probes compute their log-sum-exp on numpy alone
    script = (
        "from whlab import truncated_data, two_point"
        "\nfrom whlab.ladder import exp_moment_conditions"
        "\nexp_moment_conditions(truncated_data(two_point(-2, 1, 0.85).dist, 40))"
    )
    assert _scipy_modules_after(script) == "[]"


def test_recovery_takes_no_true_law():
    # recovery reads half-line data only; a caller that knows the law scores it
    module = importlib.import_module("whlab.reconstruct")
    functions = [getattr(module, n) for n in module.__all__]
    for fn in filter(inspect.isfunction, functions):
        assert "truth" not in inspect.signature(fn).parameters, fn.__name__
