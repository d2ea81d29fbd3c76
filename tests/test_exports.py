"""Every exported name resolves, so a stale ``__all__`` entry cannot linger;
importing the package, running the commands that never recover and the
moment probes load no scipy; recovery takes no true law."""

import importlib
import inspect
import json
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


def _scipy_modules_after(script):
    """scipy module names loaded once ``script`` ran in a fresh interpreter."""
    probe = script + (
        "\nimport sys"
        "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    return result.stdout.strip().splitlines()[-1]


def test_import_does_not_load_scipy():
    # only recovery and power_tail_pair call scipy, and they import it on use
    assert _scipy_modules_after("import whlab") == "[]"


def test_verify_factorize_simulate_do_not_load_scipy(tmp_path):
    law = {"family": "two_point", "parameters": {"down": -1, "up": 1, "p_up": 0.6}}
    docs = {
        "verify": {"distribution": law, "horizon": 40},
        "factorize": {"distribution": law, "horizon": 40},
        "simulate": {"distribution": law, "n_samples": 2000, "max_steps": 200},
    }
    lines = ["from whlab.cli import main"]
    for command, doc in docs.items():
        cfg = tmp_path / (command + ".json")
        cfg.write_text(json.dumps(doc))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / command)]
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
