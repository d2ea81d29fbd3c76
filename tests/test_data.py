"""Truncated-data construction, invariants, and the hashed disk format."""

import hashlib
import json

import numpy as np
import pytest

from whlab import (
    TruncatedData,
    convolution_power,
    lattice,
    load_data_dir,
    restrict_nonneg,
    save_data_dir,
    sup_distance,
    truncated_data,
)
from whlab.data import packed_restricted
from whlab.errors import DataInconsistencyError, DomainError


def test_restricted_powers_match_direct_powers():
    mu = lattice(-2, [0.15, 0.25, 0.1, 0.2, 0.3])
    data = truncated_data(mu, 8)
    for n in range(1, 9):
        want = restrict_nonneg(convolution_power(mu, n))
        assert sup_distance(data.restricted_power(n), want) <= 1e-14


def test_restricted_supports_and_totals():
    mu = lattice(-1, [0.4, 0.0, 0.6])
    data = truncated_data(mu, 12)
    for r in data.restricted:
        assert r.is_zero or r.min_index >= 0
        assert r.total <= 1.0 + 1e-12
    totals = data.totals()
    assert totals[0] == pytest.approx(0.6, abs=1e-15)


def test_negative_index_mass_rejected():
    bad = lattice(-1, [0.3, 0.7])
    with pytest.raises(DataInconsistencyError):
        TruncatedData(1, (bad,))


def test_overweight_power_rejected():
    heavy = lattice(0, [0.8, 0.5])
    with pytest.raises(DataInconsistencyError):
        TruncatedData(1, (heavy,))


def test_power_outside_horizon_rejected():
    data = truncated_data(lattice(0, [1.0]), 3)
    with pytest.raises(DataInconsistencyError):
        data.restricted_power(4)


def test_packed_restricted_layout():
    mu = lattice(-1, [0.5, 0.0, 0.5])
    data = truncated_data(mu, 4)
    packed = packed_restricted(data)
    assert packed.shape[0] == 4
    for n in range(1, 5):
        r = data.restricted_power(n)
        for k in range(packed.shape[1]):
            assert packed[n - 1, k] == r.mass(k)


def test_save_load_round_trip(tmp_path):
    mu = lattice(-2, [0.1, 0.2, 0.3, 0.25, 0.15])
    data = truncated_data(mu, 6)
    root = save_data_dir(data, tmp_path / "d")
    back = load_data_dir(root)
    assert back.horizon == data.horizon
    for n in range(1, 7):
        a, b = data.restricted_power(n), back.restricted_power(n)
        assert a.offset == b.offset
        assert np.array_equal(a.weights, b.weights)
        assert a.truncated_mass == b.truncated_mass


def test_tampered_file_detected(tmp_path):
    data = truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 3)
    root = save_data_dir(data, tmp_path / "d")
    target = root / "restricted_0002.json"
    doc = json.loads(target.read_text())
    doc["weights"][0] = 0.26
    target.write_text(json.dumps(doc))
    with pytest.raises(DataInconsistencyError):
        load_data_dir(root)


def test_missing_manifest_rejected(tmp_path):
    with pytest.raises(DataInconsistencyError):
        load_data_dir(tmp_path)


def test_incomplete_manifest_rejected(tmp_path):
    data = truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 3)
    root = save_data_dir(data, tmp_path / "d")
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["powers"] = manifest["powers"][:2]
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataInconsistencyError):
        load_data_dir(root)


@pytest.mark.parametrize(
    "manifest",
    [
        '{"format": "whlab-truncated-data", "horizon": 3',
        "[]",
        '{"powers": []}',
        '{"horizon": 3}',
        '{"horizon": "three", "powers": []}',
        '{"horizon": 3, "powers": "abc"}',
        '{"horizon": 3, "powers": [{"n": 1, "file": "restricted_0001.json"}]}',
    ],
)
def test_malformed_manifest_rejected(tmp_path, manifest):
    root = save_data_dir(truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 3), tmp_path / "d")
    (root / "manifest.json").write_text(manifest)
    with pytest.raises(DataInconsistencyError, match="malformed manifest.json"):
        load_data_dir(root)


@pytest.mark.parametrize("outside", [False, True])
def test_manifest_file_outside_directory_rejected(tmp_path, outside):
    root = save_data_dir(truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 3), tmp_path / "d")
    stray = tmp_path / "stray.json"
    stray.write_bytes((root / "restricted_0001.json").read_bytes())
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["powers"][0]["file"] = str(stray) if outside else "../stray.json"
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataInconsistencyError, match="not a plain file name"):
        load_data_dir(root)


def test_missing_power_file_rejected(tmp_path):
    root = save_data_dir(truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 3), tmp_path / "d")
    (root / "restricted_0002.json").unlink()
    with pytest.raises(DataInconsistencyError, match="restricted_0002.json"):
        load_data_dir(root)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_weight_in_power_file_rejected(tmp_path, bad):
    root = save_data_dir(truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 3), tmp_path / "d")
    target = root / "restricted_0001.json"
    doc = json.loads(target.read_text())
    doc["weights"][0] = bad
    target.write_text(json.dumps(doc))
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["powers"][0]["sha256"] = hashlib.sha256(target.read_bytes()).hexdigest()
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataInconsistencyError, match="non-finite"):
        load_data_dir(root)


def test_truncated_data_rejects_non_finite_step_law():
    with pytest.raises(DomainError):
        truncated_data(lattice(-1, [0.5, float("nan"), 0.5]), 3)
