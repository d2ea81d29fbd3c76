import hashlib
import json
import subprocess
import sys

import pytest

from whlab import lattice, power_tail_pair, save_data_dir, truncated_data


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "whlab.cli", *args],
        capture_output=True,
        text=True,
    )


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


def _rewrite_power_file(root, name, edit):
    """Apply edit to one power document and give it a matching manifest hash."""
    target = root / name
    doc = json.loads(target.read_text())
    edit(doc)
    target.write_text(json.dumps(doc))
    manifest = json.loads((root / "manifest.json").read_text())
    for entry in manifest["powers"]:
        if entry["file"] == target.name:
            entry["sha256"] = hashlib.sha256(target.read_bytes()).hexdigest()
    (root / "manifest.json").write_text(json.dumps(manifest))


def test_reconstruct_rejects_nan_weight_with_exit_2(tmp_path):
    def nan_weight(doc):
        doc["weights"][1] = float("nan")

    root = save_data_dir(truncated_data(lattice(-1, [0.3, 0.2, 0.5]), 10), tmp_path / "d")
    _rewrite_power_file(root, "restricted_0003.json", nan_weight)
    result = _reconstruct_exit(tmp_path, root)
    assert result.returncode == 2, result.stderr
    assert "non-finite" in result.stderr
    assert "Traceback" not in result.stderr


def test_reconstruct_rejects_non_integer_offset_with_exit_2(tmp_path):
    root = save_data_dir(truncated_data(lattice(-1, [0.3, 0.2, 0.5]), 10), tmp_path / "d")
    _rewrite_power_file(root, "restricted_0003.json", lambda doc: doc.update(offset=0.5))
    result = _reconstruct_exit(tmp_path, root)
    assert result.returncode == 2, result.stderr
    assert "offset must be an integer" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("family", ["point_mass", "custom_file"])
def test_non_integer_offset_in_distribution_rejected_with_exit_2(tmp_path, family):
    custom = tmp_path / "custom.json"
    custom.write_text(json.dumps({"min_index": -1.7, "weights": [0.5, 0.0, 0.5]}))
    parameters = {"point_mass": {"location": 1.5}, "custom_file": {"path": str(custom)}}
    cfg = write_config(
        tmp_path / "cfg.json",
        {"distribution": {"family": family, "parameters": parameters[family]}, "horizon": 20},
    )
    result = run_cli("factorize", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 2, result.stderr
    assert "offset must be an integer" in result.stderr
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
