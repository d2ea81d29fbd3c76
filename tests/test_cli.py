import contextlib
import hashlib
import importlib
import io
import json
import re
import subprocess
import sys
from enum import Enum
from typing import NamedTuple

import numpy as np
import pytest

from conftest import child_env, cm_shallow_window_law, cm_unsolved_data
from whlab import (
    FAMILIES,
    LatticeDist,
    geometric_mixture,
    ladder_law,
    lattice,
    power_tail_pair,
    save_data_dir,
    truncated_data,
    tv_distance,
    two_point,
)
from whlab.cli import _json_17g, main
from whlab.errors import ConditioningError


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
    assert report["diagnostics"]["drift"] == "oscillates"


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


ROUNDTRIP_LAWS = {
    "skip_free": ("two_point", {"down": -1, "up": 1, "p_up": 0.5}),
    "exponential": ("two_point", {"down": -2, "up": 1, "p_up": 0.85}),
    "triangular": ("power_tail_pair", {}),
    "discrete_cm": (
        "geometric_mixture",
        {"atoms": [0.3, 0.7], "atom_weights": [0.45, 0.55], "shift": -2},
    ),
}


@pytest.mark.parametrize("expected", sorted(ROUNDTRIP_LAWS))
def test_roundtrip_tv_is_the_distance_of_the_written_law(tmp_path, expected):
    family, parameters = ROUNDTRIP_LAWS[expected]
    doc = {"distribution": {"family": family, "parameters": parameters}, "horizon": 60}
    cfg = write_config(tmp_path / "cfg.json", doc)
    result = run_cli("roundtrip", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "out" / "roundtrip_report.json").read_text())
    assert report["detected_class"] == expected
    recovered = LatticeDist.from_dict(report["recovered"])
    truth = FAMILIES[family](**parameters).dist
    assert report["residuals"]["tv_distance"] == tv_distance(recovered, truth)


def test_roundtrip_reads_a_distribution_file_relative_to_the_config(tmp_path):
    law = {"min_index": -1, "weights": [0.5, 0.2, 0.1, 0.2]}
    (tmp_path / "law.json").write_text(json.dumps(law))
    doc = {"distribution": {"file": "law.json"}, "horizon": 40}
    cfg = write_config(tmp_path / "cfg.json", doc)
    result = run_cli("roundtrip", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "out" / "roundtrip_report.json").read_text())
    assert report["family"] == "custom_file"
    assert report["detected_class"] == "skip_free"
    assert report["passed"] is True


def test_relative_output_dir_lands_under_the_config_directory(tmp_path, monkeypatch):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    cfg = write_config(tmp_path / "cfg.json", dict(FACTORIZE_DOC, output_dir="reports"))
    result = run_cli("factorize", "--config", str(cfg))
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "reports" / "factorize_report.json").is_file()
    assert (tmp_path / "reports" / "factorization.csv").is_file()
    assert not any(elsewhere.iterdir())


def test_relative_data_dir_resolves_against_the_config_directory(tmp_path, monkeypatch):
    save_data_dir(truncated_data(lattice(-1, [0.5, 0.2, 0.1, 0.2]), 10), tmp_path / "d")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    cfg = write_config(tmp_path / "cfg.json", {"data_dir": "d"})
    result = run_cli("reconstruct", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result == (0, "")
    report = json.loads((tmp_path / "out" / "reconstruct_report.json").read_text())
    assert (report["detected_class"], report["horizon"]) == ("skip_free", 10)


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
    # a run through a real interpreter: ``python -m whlab.cli``
    root = tmp_path / "d"
    save_data_dir(truncated_data(lattice(-1, [0.3, 0.2, 0.5]), 3), root)
    (root / "restricted.f64").write_bytes(bytes(8))
    cfg = write_config(tmp_path / "cfg.json", {"data_dir": str(root)})
    result = subprocess.run(
        [sys.executable, "-m", "whlab.cli", "reconstruct", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 2, result.stderr
    assert "hash mismatch" in result.stderr
    assert "Traceback" not in result.stderr


def test_module_entry_point_reconstructs_skip_free_data(tmp_path):
    # a fresh interpreter loads scipy on the first recovery, not at import:
    # the deferred imports must resolve and write an in-process run's body
    mu = lattice(-1, [0.5, 0.2, 0.1, 0.2])
    root = tmp_path / "d"
    save_data_dir(truncated_data(mu, 40), root)
    cfg = write_config(tmp_path / "cfg.json", {"data_dir": str(root)})
    result = subprocess.run(
        [sys.executable, "-m", "whlab.cli", "reconstruct", "--config", str(cfg),
         "--out", str(tmp_path / "fresh")],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    body = (tmp_path / "fresh" / "reconstruct_report.json").read_text()
    report = json.loads(body)
    assert report["detected_class"] == "skip_free"
    assert tv_distance(LatticeDist.from_dict(report["recovered"]), mu) <= 1e-10
    here = run_cli("reconstruct", "--config", str(cfg), "--out", str(tmp_path / "here"))
    assert here == (0, "")
    assert (tmp_path / "here" / "reconstruct_report.json").read_text() == body


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


def _family(family, **parameters):
    return {"family": family, "parameters": parameters}


# each spec with the parameter its error names
NON_INTEGER_PARAMETERS = {
    "point_mass": (_family("point_mass", location=1.5), "offset"),
    "custom_file": ({"file": "custom.json"}, "offset"),
    "two_point_up_true": (_family("two_point", down=-1, up=True, p_up=0.5), "up"),
    "two_point_down_fractional": (_family("two_point", down=-1.5, up=1, p_up=0.5), "down"),
    "uniform_window_high_true": (_family("uniform_window", low=0, high=True), "high"),
    "uniform_window_low_fractional": (_family("uniform_window", low=1.5, high=3), "low"),
    "geometric_mixture_shift_true": (
        _family("geometric_mixture", atoms=[0.5], atom_weights=[1.0], shift=True),
        "shift",
    ),
    "power_tail_pair_cutoff_fractional": (_family("power_tail_pair", cutoff=40.5), "cutoff"),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_PARAMETERS))
def test_non_integer_offset_in_distribution_rejected_with_exit_2(tmp_path, case):
    custom = tmp_path / "custom.json"
    custom.write_text(json.dumps({"min_index": -1.7, "weights": [0.5, 0.0, 0.5]}))
    spec, name = NON_INTEGER_PARAMETERS[case]
    cfg = write_config(tmp_path / "cfg.json", {"distribution": spec, "horizon": 20})
    result = run_cli("factorize", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 2, result.stderr
    assert "%s must be an integer" % name in result.stderr
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


# a distribution file's own line and column stay inside its message; the
# line prefix is the config's "distribution" line
CUSTOM_FILE_ERRORS = {
    "invalid_json": (
        b'{\n "min_index": 0,\n "weights": [1.0,]\n}\n',
        "invalid JSON in %s: Expecting value: line 3 column 18 (char 36)",
    ),
    "nested_too_deeply": (
        b"[" * 100_000,
        "invalid JSON in %s: maximum recursion depth exceeded while decoding a JSON "
        "array from a unicode string",
    ),
    "no_min_index": (b'{"weights": [1.0]}', "custom file needs min_index and weights keys"),
    "non_numeric_weight": (
        b'{"min_index": 0, "weights": ["x"]}',
        "custom file does not define a distribution: "
        "weights must be numbers: could not convert string to float: 'x'",
    ),
}


@pytest.mark.parametrize("case", sorted(CUSTOM_FILE_ERRORS))
def test_custom_file_errors_carry_the_config_line(tmp_path, case):
    payload, message = CUSTOM_FILE_ERRORS[case]
    spec = _custom_file(tmp_path, payload)
    cfg = write_config(tmp_path / "cfg.json", {"distribution": spec, "horizon": 20})
    assert cfg.read_text().splitlines()[1] == ' "distribution": {'
    result = run_cli("factorize", "--config", str(cfg), "--out", str(tmp_path / "out"))
    if "%s" in message:
        message %= tmp_path / "custom.json"
    assert result == (2, "whlab: config error: line 2: %s\n" % message)


@pytest.mark.parametrize("command", ["factorize", "roundtrip"])
def test_zero_step_law_rejected_with_exit_2(tmp_path, command):
    spec = _custom_file(tmp_path, b'{"min_index": 0, "weights": []}')
    cfg = write_config(tmp_path / "cfg.json", {"distribution": spec, "horizon": 20})
    result = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result == (2, "whlab: invalid input: step distribution must be nonzero\n")
    assert not (tmp_path / "out" / ("%s_report.json" % command)).exists()


BAD_GEOMETRIC_MIXTURES = {
    "cutoff_below_shift": {"atoms": [0.5], "atom_weights": [1.0], "cutoff": -5},
    "cutoff_infinite": {"atoms": [0.5], "atom_weights": [1.0], "cutoff": float("inf")},
    "non_numeric_atom": {"atoms": ["x"], "atom_weights": [1.0]},
}


@pytest.mark.parametrize("case", sorted(BAD_GEOMETRIC_MIXTURES))
def test_bad_geometric_mixture_rejected_with_exit_2(tmp_path, case):
    spec = {"family": "geometric_mixture", "parameters": BAD_GEOMETRIC_MIXTURES[case]}
    cfg = write_config(tmp_path / "cfg.json", {"distribution": spec, "horizon": 20})
    result = run_cli("factorize", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 2, result.stderr
    assert re.search(r"^whlab: (.* error|invalid input): ", result.stderr, re.M)
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


def test_reconstruct_refuses_an_unsolved_cm_system_with_exit_3(tmp_path):
    root = save_data_dir(cm_unsolved_data(2), tmp_path / "d")
    result = _reconstruct_exit(tmp_path, root)
    assert result.returncode == 3, result.stderr
    report = json.loads((tmp_path / "out" / "reconstruct_report.json").read_text())
    assert report["detected_class"] == "none"
    verdict = report["diagnostics"]["detector_verdicts"]["discrete_cm"]
    assert verdict == "not_detected: the correlation inversion leaves a residual of 0.0613"


def test_reconstruct_refuses_a_cm_system_solved_at_deficient_rank_with_exit_3(tmp_path):
    result, report = _reconstruct_saved(tmp_path, cm_shallow_window_law(), 40)
    assert result.returncode == 3, result.stderr
    assert report["detected_class"] == "none"
    verdict = report["diagnostics"]["detector_verdicts"]["discrete_cm"]
    assert verdict.startswith("failed: correlation inversion has a rank-deficient design")
    assert "(rank 3 of 4 lags)" in verdict


@pytest.mark.parametrize("down", [-45, -46])
def test_reconstruct_refuses_a_fit_that_drops_the_deficit_with_exit_3(tmp_path, down):
    result, report = _reconstruct_saved(tmp_path, two_point(down, 1, 0.9).dist, 40)
    assert result.returncode == 3, result.stderr
    assert report["detected_class"] == "none"
    assert report["diagnostics"]["detector_verdicts"]["exponential"].startswith("failed")


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


def test_reconstruct_none_report_holds_only_the_verdicts(tmp_path):
    # atoms at -2 and -1, nothing at 0 and an n^-3 tail on 1..100, as in the
    # reconstruct benchmark: no detector's class
    tail = np.arange(1, 101, dtype=float) ** -3
    mu = lattice(-2, np.concatenate([[0.3, 0.2, 0.0], 0.5 * tail / tail.sum()]))
    result, report = _reconstruct_saved(tmp_path, mu, 40)
    assert result.returncode == 3, result.stderr
    assert report["detected_class"] == "none"
    assert report["residuals"] == {}
    assert set(report["diagnostics"]) == {"detector_verdicts"}


class _Verdict(Enum):
    HIT = "hit"


@pytest.mark.parametrize("value", [object(), 1j, _Verdict.HIT])
def test_report_serializer_refuses_a_type_no_report_holds(value):
    # a repr (with an address) would make bodies differ between runs
    with pytest.raises(TypeError):
        _json_17g(value)


def test_report_serializer_spells_out_special_values():
    assert _json_17g([float("nan"), float("inf"), float("-inf")]) == (
        '[\n  "nan",\n  "inf",\n  "-inf"\n]'
    )
    assert _json_17g(np.array([2.0, 0.5])) == "[\n  2,\n  0.5\n]"
    assert _json_17g({"b": {}, "a": []}) == '{\n  "a": [],\n  "b": {}\n}'


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


def test_reconstruct_rejects_a_manifest_nested_too_deeply_with_exit_2(tmp_path):
    root = save_data_dir(truncated_data(lattice(-1, [0.3, 0.2, 0.5]), 3), tmp_path / "d")
    (root / "manifest.json").write_text("[" * 100_000)
    result = _reconstruct_exit(tmp_path, root)
    assert result == (
        2,
        "whlab: invalid input: malformed manifest.json in %s: RecursionError: maximum "
        "recursion depth exceeded while decoding a JSON array from a unicode string\n"
        % root,
    )


def test_config_nested_too_deeply_is_a_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"horizon": ' + "[" * 100_000)
    result = run_cli("factorize", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result == (
        2,
        "whlab: config error: invalid JSON: maximum recursion depth exceeded while "
        "decoding a JSON array from a unicode string\n",
    )


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
    cfg = write_config(tmp_path / "cfg.json", dict(FACTORIZE_DOC, tolerances={"tv": bad}))
    lines = cfg.read_text().splitlines()
    line = next(i for i, text in enumerate(lines, start=1) if '"tolerances"' in text)
    result = run_cli("verify", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 2, result.stderr
    assert "line %d: tolerance 'tv' must be finite and positive" % line in result.stderr


def test_invalid_json_reports_line(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{\n "horizon": 10,\n}\n')
    result = run_cli("factorize", "--config", str(cfg))
    assert result.returncode == 2
    assert "line 3" in result.stderr


def test_non_utf8_config_reports_line(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{\n "horizon": 10,\n "note": "caf\xe9"\n}\n')
    result = run_cli("factorize", "--config", str(cfg))
    assert result.returncode == 2
    assert "line 3: config is not UTF-8" in result.stderr


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


def test_simulate_writes_the_dp_mass_of_each_cell(tmp_path):
    # at 25,000 samples and 400 steps two cells' n_samples * p / n_samples
    # differ from p in the last bit; the CSV carries p itself
    doc = dict(SIMULATE_DOC, n_samples=25000, max_steps=400)
    cfg = write_config(tmp_path / "cfg.json", doc)
    result = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    exact = ladder_law(two_point(-2, 1, 0.7).dist, "upward", 400)
    rows = [line.split(",") for line in csv_body(tmp_path / "out" / "empirical.csv")[2:]]
    masses = [(exact.mass(int(n), int(k)), float(p)) for n, k, _, p, _ in rows]
    assert all(want == got for want, got in masses)
    assert any(25000 * want / 25000 != want for want, _ in masses)


# each family's window one entry past lattice.MAX_WINDOW
_PAST = importlib.import_module("whlab.lattice").MAX_WINDOW + 1
WINDOWS_PAST_LIMIT = {
    "two_point": {"down": -1, "up": _PAST - 2, "p_up": 0.5},
    "uniform_window": {"low": 0, "high": _PAST - 1},
    "geometric_mixture": {"atoms": [0.5], "atom_weights": [1.0], "cutoff": _PAST - 2},
    "power_tail_pair": {"cutoff": _PAST - 3},
}


@pytest.mark.parametrize(
    "command, rows, cols", [("factorize", 10**30, 2), ("roundtrip", 10**30, 1)]
)
def test_horizon_past_the_table_budget_exits_2(tmp_path, command, rows, cols):
    # a (10**30, 1) table passes no column limit, only the entries budget
    cfg = write_config(tmp_path / "cfg.json", dict(FACTORIZE_DOC, horizon=10**30))
    result = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result == (
        2,
        "whlab: invalid input: table of %d rows and %d columns exceeds maximum "
        "67108864 entries\n" % (rows, cols),
    )


def test_phase_table_past_the_entry_budget_exits_2(tmp_path, monkeypatch):
    # the walk tables fit a budget of 1000 float64 entries, but phi's complex
    # table of 3 atoms by 250 t points takes the bytes of 1500
    monkeypatch.setattr(importlib.import_module("whlab.lattice"), "MAX_TABLE", 1000)
    cfg = write_config(tmp_path / "cfg.json", dict(FACTORIZE_DOC, t_points=250))
    result = run_cli("factorize", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result == (
        2,
        "whlab: invalid input: table of 3 rows and 250 columns exceeds maximum "
        "500 entries\n",
    )
    assert not (tmp_path / "out" / "factorize_report.json").exists()


def test_simulate_refuses_a_max_steps_past_the_table_budget_at_once(tmp_path):
    # the sampler alone would walk 1,000 samples towards 10**12 steps for
    # hours; the exact law's table is refused first
    doc = dict(SIMULATE_DOC, side="downward", n_samples=1000, max_steps=10**12)
    cfg = write_config(tmp_path / "cfg.json", doc)
    result = subprocess.run(
        [sys.executable, "-m", "whlab.cli", "simulate", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr == (
        "whlab: invalid input: table of 1000000000000 rows and 2 columns "
        "exceeds maximum 67108864 entries\n"
    )


@pytest.mark.parametrize("family", sorted(WINDOWS_PAST_LIMIT))
def test_generator_window_past_limit_rejected_with_exit_2(tmp_path, family):
    spec = {"family": family, "parameters": WINDOWS_PAST_LIMIT[family]}
    cfg = write_config(tmp_path / "cfg.json", dict(SIMULATE_DOC, distribution=spec))
    result = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 2, result.stderr
    assert re.search(r"^whlab: (.* error|invalid input): ", result.stderr, re.M)
    assert "Traceback" not in result.stderr


def test_parser_reused_across_calls_keeps_errors_and_defaults(tmp_path):
    # main builds its parser once per process: a parse must leave nothing
    # behind for the next call, neither an error nor a value
    save_data_dir(truncated_data(lattice(-1, [0.5, 0.2, 0.1, 0.2]), 10), tmp_path / "d")
    rcfg = str(write_config(tmp_path / "r.json", {"data_dir": str(tmp_path / "d")}))
    assert run_cli("reconstruct", "--config", rcfg, "--out", str(tmp_path / "r")) == (0, "")
    bad = run_cli("reconstruct", "--config", rcfg, "--bogus")
    assert bad.returncode == 2
    assert "unrecognized arguments: --bogus" in bad.stderr
    assert run_cli("reconstruct", "--config", rcfg, "--out", str(tmp_path / "r")) == (0, "")


def test_seed_option_is_gone(tmp_path):
    # the config's "seed" is the only seed
    cfg = write_config(tmp_path / "cfg.json", SIMULATE_DOC)
    result = run_cli("simulate", "--config", str(cfg), "--seed", "5")
    assert result.returncode == 2
    assert "unrecognized arguments: --seed 5" in result.stderr


def test_config_error_names_the_key_line_not_a_value_line(tmp_path):
    # "seed" appears first as a value on line 3; the key sits on line 6
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{\n'
        ' "distribution": {"family": "point_mass", "parameters": {"location": 1}},\n'
        ' "output_dir": "seed",\n'
        ' "side": "upward",\n'
        ' "n_samples": 200,\n'
        ' "seed": -1,\n'
        ' "max_steps": 20\n'
        '}\n'
    )
    result = run_cli("simulate", "--config", str(cfg))
    assert result == (
        2,
        "whlab: config error: line 6: 'seed' must be an integer in [0, 2^64)\n",
    )


@pytest.mark.parametrize("seed", [-1, True, 1.5, 1 << 64])
def test_bad_document_seed_rejected(tmp_path, seed):
    cfg = write_config(tmp_path / "cfg.json", dict(SIMULATE_DOC, seed=seed))
    line = cfg.read_text().splitlines().index(' "seed": %s' % json.dumps(seed)) + 1
    result = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result == (
        2,
        "whlab: config error: line %d: 'seed' must be an integer in [0, 2^64)\n" % line,
    )


def test_key_spelled_with_an_escape_is_refused_at_line_1(tmp_path):
    # no line holds the text "seed", so the refusal cannot name the key's line
    text = json.dumps(dict(SIMULATE_DOC, seed=-1), indent=1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text.replace('"seed"', '"\\u0073eed"'))
    assert "seed" not in cfg.read_text()
    result = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result == (
        2,
        "whlab: config error: line 1: 'seed' must be an integer in [0, 2^64)\n",
    )


def test_runner_error_exits_1_without_a_traceback(tmp_path, monkeypatch):
    def refuse(data, detectors=None):
        raise ConditioningError("solver gave up", condition_number=1e13)

    monkeypatch.setattr("whlab.cli.auto_reconstruct", refuse)
    save_data_dir(truncated_data(lattice(-1, [0.5, 0.2, 0.1, 0.2]), 10), tmp_path / "d")
    cfg = write_config(tmp_path / "cfg.json", {"data_dir": str(tmp_path / "d")})
    result = run_cli("reconstruct", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result == (1, "whlab: solver gave up (condition number 1.000e+13)\n")
    assert not (tmp_path / "out" / "reconstruct_report.json").exists()


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


def test_window_past_limit_in_a_walk_exits_2(tmp_path):
    # the generator's window fits, and so do the walk's two-entry sublattice
    # windows, but r_2 would need a table of 2 * 524288 + 1 height columns
    doc = {
        "distribution": {
            "family": "two_point",
            "parameters": {"down": -1, "up": 524288, "p_up": 0.5},
        },
        "horizon": 3,
    }
    cfg = write_config(tmp_path / "cfg.json", doc)
    result = run_cli("roundtrip", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result == (
        2,
        "whlab: invalid input: table of 1048577 columns exceeds maximum 1048576\n",
    )
    assert not any((tmp_path / "out").iterdir())
    # the killed walks behind factorize build no r_n table, and finish
    result = run_cli("factorize", "--config", str(cfg), "--out", str(tmp_path / "fac"))
    assert result.returncode == 0


# one config per command, with the exit code it gives and a report field
REPORTS = {
    "factorize": (FACTORIZE_DOC, 0, "family", "two_point"),
    "verify": (FACTORIZE_DOC, 0, "passed", True),
    "reconstruct": ({"data_dir": "d"}, 0, "detected_class", "skip_free"),
    "roundtrip": (
        {
            "distribution": {"family": "uniform_window", "parameters": {"low": -3, "high": 2}},
            "horizon": 2,
        },
        3,
        "detected_class",
        "none",
    ),
    "simulate": (
        {
            "distribution": {"family": "point_mass", "parameters": {"location": 1}},
            "side": "downward",
            "n_samples": 100,
            "max_steps": 10,
        },
        1,
        "error",
        "no cell reaches the expected-count threshold 25",
    ),
}


@pytest.mark.parametrize("command", sorted(REPORTS))
def test_every_report_names_its_command_and_config(tmp_path, command):
    doc, code, key, value = REPORTS[command]
    save_data_dir(truncated_data(lattice(-1, [0.5, 0.2, 0.1, 0.2]), 10), tmp_path / "d")
    cfg = write_config(tmp_path / "cfg.json", doc)
    result = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == code, result.stderr
    report = json.loads((tmp_path / "out" / ("%s_report.json" % command)).read_text())
    assert report["command"] == command
    assert report["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert report[key] == value


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


# command, document, the key whose line the error names (None: line 1) and
# the message; "{tmp}" stands for the test's directory
CONFIG_REFUSALS = {
    "tolerances_not_object": (
        "verify", dict(FACTORIZE_DOC, tolerances=[1e-9]), "tolerances",
        "'tolerances' must be an object",
    ),
    "tolerance_misnamed": (
        "roundtrip", dict(FACTORIZE_DOC, tolerances={"tv_distance": 1e-3}), "tolerances",
        "unknown tolerance 'tv_distance'; expected 'tv'",
    ),
    "tolerance_residual_removed": (
        "verify", dict(FACTORIZE_DOC, tolerances={"residual": 1e-10}), "tolerances",
        "unknown tolerance 'residual'; expected 'tv'",
    ),
    "missing_horizon": (
        "factorize", _without(FACTORIZE_DOC, "horizon"), None,
        "missing required key 'horizon'",
    ),
    "missing_distribution": (
        "factorize", _without(FACTORIZE_DOC, "distribution"), None,
        "missing required key 'distribution'",
    ),
    "missing_data_dir": ("reconstruct", {}, None, "missing required key 'data_dir'"),
    "absent_data_dir": (
        "reconstruct", {"data_dir": "{tmp}/absent"}, "data_dir",
        "data directory {tmp}/absent not found",
    ),
    "s_values_empty": (
        "factorize", dict(FACTORIZE_DOC, s_values=[]), "s_values",
        "'s_values' must be a nonempty list",
    ),
    "s_values_at_one": (
        "factorize", dict(FACTORIZE_DOC, s_values=[1.0]), "s_values",
        "grid values must satisfy |s| < 1, got 1.0",
    ),
    "s_values_string": (
        "factorize", dict(FACTORIZE_DOC, s_values="0.5"), "s_values",
        "'s_values' must be a nonempty list",
    ),
    "side_up": (
        "simulate", dict(SIMULATE_DOC, side="up"), "side",
        "'side' must be 'upward' or 'downward'",
    ),
    "detectors_empty": (
        "reconstruct", {"data_dir": "{tmp}/d", "detectors": []}, "detectors",
        "'detectors' must be a nonempty list",
    ),
    "detectors_string": (
        "reconstruct", {"data_dir": "{tmp}/d", "detectors": "skip_free"}, "detectors",
        "'detectors' must be a nonempty list",
    ),
    "distribution_list": (
        "factorize", dict(FACTORIZE_DOC, distribution=[1]), "distribution",
        "'distribution' must be an object",
    ),
    "distribution_without_family": (
        "factorize", dict(FACTORIZE_DOC, distribution={"parameters": {}}), "distribution",
        "'distribution' needs 'family' or 'file'",
    ),
    "family_list": (
        "factorize", dict(FACTORIZE_DOC, distribution={"family": ["two_point"]}), "distribution",
        "unknown family ['two_point']; expected one of ['geometric_mixture', 'point_mass', "
        "'power_tail_pair', 'two_point', 'uniform_window']",
    ),
    "family_object": (
        "factorize", dict(FACTORIZE_DOC, distribution={"family": {"two_point": {}}}),
        "distribution",
        "unknown family {'two_point': {}}; expected one of ['geometric_mixture', "
        "'point_mass', 'power_tail_pair', 'two_point', 'uniform_window']",
    ),
    "parameters_list": (
        "factorize",
        dict(FACTORIZE_DOC, distribution={"family": "two_point", "parameters": [-1, 1, 0.6]}),
        "distribution",
        "'parameters' must be an object",
    ),
    "top_level_array": (
        "factorize", [FACTORIZE_DOC], None, "config document must be a JSON object",
    ),
    "p_up_zero": (
        "factorize",
        dict(FACTORIZE_DOC, distribution=_family("two_point", down=-1, up=1, p_up=0)),
        "distribution",
        "invalid distribution: p_up must lie in (0, 1)",
    ),
    "p_up_one": (
        "factorize",
        dict(FACTORIZE_DOC, distribution=_family("two_point", down=-1, up=1, p_up=1.0)),
        "distribution",
        "invalid distribution: p_up must lie in (0, 1)",
    ),
    "unknown_parameter": (
        "factorize",
        dict(FACTORIZE_DOC, distribution=_family("two_point", down=-1, up=1, p=0.6)),
        "distribution",
        "bad parameters for two_point: two_point() got an unexpected keyword argument 'p'",
    ),
    "geometric_lists_mismatched": (
        "factorize",
        dict(
            FACTORIZE_DOC,
            distribution=_family("geometric_mixture", atoms=[0.3, 0.5], atom_weights=[1.0]),
        ),
        "distribution",
        "invalid distribution: atoms and atom_weights must match and be nonempty",
    ),
    "geometric_lists_empty": (
        "factorize",
        dict(FACTORIZE_DOC, distribution=_family("geometric_mixture", atoms=[], atom_weights=[])),
        "distribution",
        "invalid distribution: atoms and atom_weights must match and be nonempty",
    ),
    "geometric_atom_above_one": (
        "factorize",
        dict(
            FACTORIZE_DOC,
            distribution=_family("geometric_mixture", atoms=[1.2], atom_weights=[1.0]),
        ),
        "distribution",
        "invalid distribution: geometric atoms must lie in (0, 1)",
    ),
    "geometric_weights_over_one": (
        "factorize",
        dict(
            FACTORIZE_DOC,
            distribution=_family("geometric_mixture", atoms=[0.3, 0.5], atom_weights=[0.5, 0.6]),
        ),
        "distribution",
        "invalid distribution: atom_weights must be positive and sum to one",
    ),
    "t_points_past_max_window": (
        "factorize", dict(FACTORIZE_DOC, t_points=10**30), "t_points",
        "'t_points' must be at most 1048576",
    ),
    "simulate_improper_law": (
        "simulate",
        dict(SIMULATE_DOC, distribution=_family("power_tail_pair", cutoff=40)),
        "distribution",
        "simulation needs a proper distribution",
    ),
}


@pytest.mark.parametrize("case", sorted(CONFIG_REFUSALS))
def test_config_refusal_names_its_line_with_exit_2(tmp_path, case):
    command, doc, key, message = CONFIG_REFUSALS[case]
    save_data_dir(truncated_data(lattice(-1, [0.5, 0.2, 0.1, 0.2]), 10), tmp_path / "d")
    doc = json.loads(json.dumps(doc).replace("{tmp}", str(tmp_path)))
    cfg = write_config(tmp_path / "cfg.json", doc)
    lines = cfg.read_text().splitlines()
    line = 1 if key is None else next(
        i for i, text in enumerate(lines, start=1) if '"%s":' % key in text
    )
    result = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 2, result.stderr
    want = "config error: line %d: %s" % (line, message.replace("{tmp}", str(tmp_path)))
    assert want in result.stderr
    assert "Traceback" not in result.stderr
