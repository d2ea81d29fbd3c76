import contextlib
import hashlib
import io
import json
import subprocess
import sys
from typing import NamedTuple

import numpy as np
import pytest

from whlab import (
    LatticeDist,
    geometric_mixture,
    lattice,
    power_tail_pair,
    save_data_dir,
    truncated_data,
    tv_distance,
    two_point,
)
from whlab.cli import main


class CliResult(NamedTuple):
    returncode: int
    stderr: str


def run_cli(*args):
    """Run ``whlab.cli.main`` in this process, capturing stderr; an argparse
    exit gives its exit code."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, err.getvalue())


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=1))
    return path


def csv_body(path):
    lines = path.read_text().splitlines()
    return [line for line in lines if not line.startswith("# generated")]


FACTORIZE_DOC = {
    "distribution": {
        "family": "two_point",
        "parameters": {"down": -1, "up": 1, "p_up": 0.6},
    },
    "horizon": 60,
    "s_values": [0.3, 0.6],
    "t_points": 8,
}


def test_factorize_outputs_are_deterministic(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", FACTORIZE_DOC)
    first = run_cli("factorize", "--config", str(cfg), "--out", str(tmp_path / "a"))
    second = run_cli("factorize", "--config", str(cfg), "--out", str(tmp_path / "b"))
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    body_a = csv_body(tmp_path / "a" / "factorization.csv")
    body_b = csv_body(tmp_path / "b" / "factorization.csv")
    assert body_a == body_b
    sha = hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert body_a[0] == "# config_sha256 %s" % sha
    report_a = (tmp_path / "a" / "factorize_report.json").read_text()
    report_b = (tmp_path / "b" / "factorize_report.json").read_text()
    assert report_a == report_b
    assert json.loads(report_a)["config_sha256"] == sha


def test_verify_passes_on_honest_distribution(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", FACTORIZE_DOC)
    result = run_cli("verify", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["passed"] is True
    assert report["max_residual"] <= max(r["allowed"] for r in report["per_s"])


def test_roundtrip_skip_free_exact(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "distribution": {
                "family": "two_point",
                "parameters": {"down": -1, "up": 1, "p_up": 0.5},
            },
            "horizon": 80,
        },
    )
    result = run_cli("roundtrip", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "out" / "roundtrip_report.json").read_text())
    assert report["detected_class"] == "skip_free"
    assert report["passed"] is True
    assert report["diagnostics"]["v_rank_deficient"] is True
    assert report["diagnostics"]["drift"] == "undecided"


def test_roundtrip_exit_1_when_tolerance_unreachable(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "distribution": {
                "family": "geometric_mixture",
                "parameters": {
                    "atoms": [0.3, 0.7],
                    "atom_weights": [0.45, 0.55],
                    "shift": -2,
                },
            },
            "horizon": 60,
            "tolerances": {"tv": 1e-30},
        },
    )
    result = run_cli("roundtrip", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 1
    report = json.loads((tmp_path / "out" / "roundtrip_report.json").read_text())
    assert report["detected_class"] == "discrete_cm"
    assert report["passed"] is False


@pytest.fixture(scope="module")
def heavy_tail_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("heavy_tail")
    save_data_dir(truncated_data(power_tail_pair().dist, 200), directory)
    return directory


def test_reconstruct_detects_triangular(tmp_path, heavy_tail_dir):
    cfg = write_config(
        tmp_path / "cfg.json", {"data_dir": str(heavy_tail_dir)}
    )
    result = run_cli("reconstruct", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "out" / "reconstruct_report.json").read_text())
    assert report["detected_class"] == "triangular"


def test_reconstruct_exit_3_when_detectors_restricted(tmp_path, heavy_tail_dir):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"data_dir": str(heavy_tail_dir), "detectors": ["exponential"]},
    )
    result = run_cli("reconstruct", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 3
    report = json.loads((tmp_path / "out" / "reconstruct_report.json").read_text())
    assert report["detected_class"] == "none"


def _reconstruct_exit(tmp_path, data_dir):
    cfg = write_config(tmp_path / "cfg.json", {"data_dir": str(data_dir)})
    return run_cli("reconstruct", "--config", str(cfg), "--out", str(tmp_path / "out"))


def _write_table(root, payload):
    """Replace the saved table with payload and give it a matching manifest hash."""
    (root / "restricted.f64").write_bytes(payload)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["sha256"] = hashlib.sha256(payload).hexdigest()
    (root / "manifest.json").write_text(json.dumps(manifest))


def _edit_table(root, row, k, value):
    manifest = json.loads((root / "manifest.json").read_text())
    table = np.frombuffer((root / "restricted.f64").read_bytes(), dtype="<f8")
    table = table.reshape(manifest["horizon"], -1).copy()
    table[row, k] = value
    _write_table(root, table.astype("<f8").tobytes())


def test_reconstruct_rejects_nan_weight_with_exit_2(tmp_path):
    root = save_data_dir(truncated_data(lattice(-1, [0.3, 0.2, 0.5]), 10), tmp_path / "d")
    _edit_table(root, 2, 1, float("nan"))
    result = _reconstruct_exit(tmp_path, root)
    assert result.returncode == 2, result.stderr
    assert "non-finite" in result.stderr
    assert "Traceback" not in result.stderr


def _old_format_dir(root):
    """A directory in the one-JSON-file-per-power format, no longer read."""
    root.mkdir()
    payload = json.dumps({"offset": 0, "weights": [0.5], "truncated_mass": 0.0})
    (root / "restricted_0001.json").write_text(payload)
    entry = {
        "n": 1,
        "file": "restricted_0001.json",
        "sha256": hashlib.sha256(payload.encode()).hexdigest(),
    }
    manifest = {"format": "whlab-truncated-data", "horizon": 1, "powers": [entry]}
    (root / "manifest.json").write_text(json.dumps(manifest))


MALFORMED_DATA_DIRS = {
    "old_format": (_old_format_dir, "'whlab-truncated-data/2'"),
    "hash_mismatch": (lambda root: (root / "restricted.f64").write_bytes(bytes(8)), "hash"),
    "missing_table": (lambda root: (root / "restricted.f64").unlink(), "restricted.f64"),
    "wrong_byte_count": (lambda root: _write_table(root, bytes(8)), "multiple"),
    "empty_table": (lambda root: _write_table(root, b""), "multiple"),
    "negative_weight": (lambda root: _edit_table(root, 1, 0, -1e-9), "negative weight"),
    "total_above_one": (lambda root: _edit_table(root, 0, 0, 0.9), "above one"),
}


def test_module_entry_point_rejects_malformed_data_dir_with_exit_2(tmp_path):
    # the one run through a real interpreter: ``python -m whlab.cli``
    root = tmp_path / "d"
    save_data_dir(truncated_data(lattice(-1, [0.3, 0.2, 0.5]), 3), root)
    (root / "restricted.f64").write_bytes(bytes(8))
    cfg = write_config(tmp_path / "cfg.json", {"data_dir": str(root)})
    result = subprocess.run(
        [sys.executable, "-m", "whlab.cli", "reconstruct", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2, result.stderr
    assert "hash mismatch" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("case", sorted(MALFORMED_DATA_DIRS))
def test_reconstruct_rejects_malformed_data_dir_with_exit_2(tmp_path, case):
    damage, message = MALFORMED_DATA_DIRS[case]
    root = tmp_path / "d"
    if case != "old_format":
        save_data_dir(truncated_data(lattice(-1, [0.3, 0.2, 0.5]), 3), root)
    damage(root)
    result = _reconstruct_exit(tmp_path, root)
    assert result.returncode == 2, result.stderr
    assert message in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("family", ["point_mass", "custom_file"])
def test_non_integer_offset_in_distribution_rejected_with_exit_2(tmp_path, family):
    custom = tmp_path / "custom.json"
    custom.write_text(json.dumps({"min_index": -1.7, "weights": [0.5, 0.0, 0.5]}))
    specs = {
        "point_mass": {"family": "point_mass", "parameters": {"location": 1.5}},
        "custom_file": {"file": "custom.json"},
    }
    cfg = write_config(tmp_path / "cfg.json", {"distribution": specs[family], "horizon": 20})
    result = run_cli("factorize", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 2, result.stderr
    assert "offset must be an integer" in result.stderr
    assert "Traceback" not in result.stderr


def _custom_file(tmp_path, payload):
    (tmp_path / "custom.json").write_bytes(payload)
    return {"file": "custom.json"}


BAD_CUSTOM_DISTRIBUTIONS = {
    "not_utf8": lambda tmp: _custom_file(
        tmp, b'{"min_index": -1, "weights": [1.0], "name": "\xff"}'
    ),
    "family_spelling_missing_path": lambda tmp: {
        "family": "custom_file",
        "parameters": {"path": str(tmp / "absent.json")},
    },
    "family_spelling_directory": lambda tmp: {
        "family": "custom_file",
        "parameters": {"path": str(tmp)},
    },
    "file_not_a_string": lambda tmp: {"file": 5},
}


@pytest.mark.parametrize("case", sorted(BAD_CUSTOM_DISTRIBUTIONS))
def test_bad_custom_distribution_rejected_with_exit_2(tmp_path, case):
    spec = BAD_CUSTOM_DISTRIBUTIONS[case](tmp_path)
    cfg = write_config(tmp_path / "cfg.json", {"distribution": spec, "horizon": 20})
    result = run_cli("factorize", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 2, result.stderr
    assert "config error" in result.stderr
    assert "Traceback" not in result.stderr


TWO_POWER_LAWS = {
    "skip_free": lattice(-1, [0.5, 0.2, 0.1, 0.2]),
    "power_tail_pair": power_tail_pair().dist,
    "geo_mixture_shift_2": geometric_mixture((0.3, 0.5), (0.5, 0.5), shift=-2).dist,
    "two_point": two_point(-2, 1, 0.85).dist,
}


def _reconstruct_saved(tmp_path, mu, horizon):
    """Exit code and report of whlab reconstruct on mu's saved data."""
    root = save_data_dir(truncated_data(mu, horizon), tmp_path / "d")
    result = _reconstruct_exit(tmp_path, root)
    report = json.loads((tmp_path / "out" / "reconstruct_report.json").read_text())
    return result, report


@pytest.mark.parametrize("name", ["power_tail_pair", "two_point", "geo_mixture_shift_2"])
def test_reconstruct_one_power_with_negative_mass_is_none(tmp_path, name):
    # r1 alone fixes the deficit but not where the negative mass sits
    result, report = _reconstruct_saved(tmp_path, TWO_POWER_LAWS[name], 1)
    assert result.returncode == 3, result.stderr
    assert report["detected_class"] == "none"
    assert report["recovered"] is None


def test_reconstruct_refuses_rank_deficient_cm_recovery_with_exit_3(tmp_path):
    mu = geometric_mixture((0.3, 0.5), (0.5, 0.5), shift=-3).dist
    result, report = _reconstruct_saved(tmp_path, mu, 40)
    assert result.returncode == 3, result.stderr
    assert report["detected_class"] == "none"
    assert report["diagnostics"]["detector_verdicts"]["discrete_cm"].startswith("failed")


@pytest.mark.parametrize(
    "name, expected",
    [
        ("skip_free", "skip_free"),
        ("power_tail_pair", "triangular"),
        ("geo_mixture_shift_2", "discrete_cm"),
    ],
)
def test_reconstruct_from_two_powers(tmp_path, name, expected):
    truth = TWO_POWER_LAWS[name]
    result, report = _reconstruct_saved(tmp_path, truth, 2)
    assert result.returncode == 0, result.stderr
    assert report["detected_class"] == expected
    assert tv_distance(LatticeDist.from_dict(report["recovered"]), truth) <= 1e-10


def test_reconstruct_two_powers_do_not_reach_the_exponential_class(tmp_path):
    result, report = _reconstruct_saved(tmp_path, TWO_POWER_LAWS["two_point"], 2)
    assert result.returncode == 3, result.stderr
    assert report["detected_class"] == "none"
    verdict = report["diagnostics"]["detector_verdicts"]["exponential"]
    assert verdict.startswith("not_detected")


def test_reconstruct_all_zero_data_is_none(tmp_path):
    result, report = _reconstruct_saved(tmp_path, lattice(-2, [1.0]), 10)
    assert result.returncode == 3, result.stderr
    assert report["detected_class"] == "none"
    assert report["recovered"] is None


@pytest.mark.parametrize("key, value", [("horizon", 3.7), ("horizon", "3")])
def test_reconstruct_rejects_non_integer_manifest_field_with_exit_2(tmp_path, key, value):
    root = save_data_dir(truncated_data(lattice(-1, [0.3, 0.2, 0.5]), 3), tmp_path / "d")
    manifest = json.loads((root / "manifest.json").read_text())
    manifest[key] = value
    (root / "manifest.json").write_text(json.dumps(manifest))
    result = _reconstruct_exit(tmp_path, root)
    assert result.returncode == 2, result.stderr
    assert "must be an integer" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("manifest", ['{"horizon": 3, "powers": [', '{"horizon": 3}'])
def test_reconstruct_rejects_malformed_manifest_with_exit_2(tmp_path, manifest):
    root = save_data_dir(truncated_data(lattice(-1, [0.3, 0.2, 0.5]), 3), tmp_path / "d")
    (root / "manifest.json").write_text(manifest)
    result = _reconstruct_exit(tmp_path, root)
    assert result.returncode == 2, result.stderr
    assert "malformed manifest.json" in result.stderr
    assert "Traceback" not in result.stderr


def test_config_error_is_line_anchored(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{\n "distribution": {"family": "point_mass", "parameters": {"location": 1}},\n'
        ' "horizon": -5\n}\n'
    )
    result = run_cli("factorize", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 2
    assert "config error" in result.stderr
    assert "line 3" in result.stderr


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_tolerance_rejected_with_line(tmp_path, bad):
    # json.dumps writes NaN and Infinity literals, and Python's json parses them
    cfg = write_config(tmp_path / "cfg.json", dict(FACTORIZE_DOC, tolerances={"residual": bad}))
    lines = cfg.read_text().splitlines()
    line = next(i for i, text in enumerate(lines, start=1) if '"tolerances"' in text)
    result = run_cli("verify", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 2, result.stderr
    assert "line %d: tolerance 'residual' must be finite and positive" % line in result.stderr


def test_invalid_json_reports_line(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{\n "horizon": 10,\n}\n')
    result = run_cli("factorize", "--config", str(cfg))
    assert result.returncode == 2
    assert "line 3" in result.stderr


def test_missing_config_file_rejected(tmp_path):
    result = run_cli("factorize", "--config", str(tmp_path / "absent.json"))
    assert result.returncode == 2


def test_declared_command_mismatch_rejected(tmp_path):
    doc = dict(FACTORIZE_DOC)
    doc["command"] = "verify"
    cfg = write_config(tmp_path / "cfg.json", doc)
    result = run_cli("factorize", "--config", str(cfg))
    assert result.returncode == 2


def test_unknown_detector_rejected(tmp_path, heavy_tail_dir):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"data_dir": str(heavy_tail_dir), "detectors": ["fourier"]},
    )
    result = run_cli("reconstruct", "--config", str(cfg))
    assert result.returncode == 2
    assert "fourier" in result.stderr


def test_unknown_family_rejected(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"distribution": {"family": "cauchy", "parameters": {}}, "horizon": 10},
    )
    result = run_cli("factorize", "--config", str(cfg))
    assert result.returncode == 2
    assert "cauchy" in result.stderr


SIMULATE_DOC = {
    "distribution": {
        "family": "two_point",
        "parameters": {"down": -2, "up": 1, "p_up": 0.7},
    },
    "side": "upward",
    "n_samples": 20000,
    "max_steps": 200,
    "seed": 41,
}


def test_simulate_passes_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", SIMULATE_DOC)
    first = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "a"))
    second = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "b"))
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    assert csv_body(tmp_path / "a" / "empirical.csv") == csv_body(
        tmp_path / "b" / "empirical.csv"
    )
    report = json.loads((tmp_path / "a" / "simulate_report.json").read_text())
    assert report["passed"] is True
    assert report["seed"] == 41
    assert abs(report["censored_z"]) <= 4.0


def test_simulate_seed_override_lands_in_report(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", SIMULATE_DOC)
    result = run_cli(
        "simulate",
        "--config",
        str(cfg),
        "--out",
        str(tmp_path / "out"),
        "--seed",
        "5",
    )
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "out" / "simulate_report.json").read_text())
    assert report["seed"] == 5


def test_bad_document_seed_rejected_under_override(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", dict(SIMULATE_DOC, seed=-1))
    result = run_cli("simulate", "--config", str(cfg), "--seed", "5")
    assert result.returncode == 2, result.stderr
    assert "'seed' must be an integer" in result.stderr


def test_simulate_exit_1_when_no_cell_reaches_threshold(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "distribution": {"family": "point_mass", "parameters": {"location": 1}},
            "side": "downward",
            "n_samples": 100,
            "max_steps": 10,
        },
    )
    result = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 1
    report = json.loads((tmp_path / "out" / "simulate_report.json").read_text())
    assert "error" in report
    assert report["censored_count"] == 100
