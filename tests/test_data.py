"""Truncated-data construction, invariants, and the hashed disk format."""

import hashlib
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert data.restricted[0].total == pytest.approx(0.6, abs=1e-15)


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


def rewrite_table(root, row, k, value):
    """Set one entry of the (horizon, W) table and give it a matching manifest hash."""
    manifest = json.loads((root / "manifest.json").read_text())
    table = np.frombuffer((root / "restricted.f64").read_bytes(), dtype="<f8")
    table = table.reshape(manifest["horizon"], -1).copy()
    table[row, k] = value
    payload = table.astype("<f8").tobytes()
    (root / "restricted.f64").write_bytes(payload)
    manifest["sha256"] = hashlib.sha256(payload).hexdigest()
    (root / "manifest.json").write_text(json.dumps(manifest))


def test_saved_directory_holds_one_table_and_a_manifest(tmp_path):
    data = truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 3)
    root = save_data_dir(data, tmp_path / "d")
    assert sorted(p.name for p in root.iterdir()) == ["manifest.json", "restricted.f64"]
    table = (root / "restricted.f64").read_bytes()
    assert table == packed_restricted(data).astype("<f8").tobytes()
    manifest = json.loads((root / "manifest.json").read_text())
    assert manifest == {
        "format": "whlab-truncated-data/2",
        "horizon": 3,
        "sha256": hashlib.sha256(table).hexdigest(),
    }


def test_two_saves_are_byte_identical(tmp_path):
    data = truncated_data(lattice(-2, [0.1, 0.2, 0.3, 0.25, 0.15]), 6)
    a = save_data_dir(data, tmp_path / "a")
    b = save_data_dir(data, tmp_path / "b")
    for name in ("manifest.json", "restricted.f64"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# offsets 0..4 and windows of up to 6 weights, some or all exactly zero;
# each weight is at most 1/8, so every total stays below one
restricted_rows = st.builds(
    lattice,
    st.integers(0, 4),
    st.lists(st.just(0.0) | st.floats(0.0, 0.125), max_size=6),
)


@given(st.lists(restricted_rows, min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_save_load_round_trip_keeps_every_bit(rows):
    data = TruncatedData(len(rows), tuple(rows))
    with tempfile.TemporaryDirectory() as tmp:
        back = load_data_dir(save_data_dir(data, tmp))
    assert back.horizon == data.horizon
    for a, b in zip(data.restricted, back.restricted):
        assert a.offset == b.offset
        assert np.array_equal(a.weights, b.weights)


def test_tampered_file_detected(tmp_path):
    data = truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 3)
    root = save_data_dir(data, tmp_path / "d")
    target = root / "restricted.f64"
    table = bytearray(target.read_bytes())
    table[8] ^= 1
    target.write_bytes(bytes(table))
    with pytest.raises(DataInconsistencyError, match="hash mismatch"):
        load_data_dir(root)


def test_missing_manifest_rejected(tmp_path):
    with pytest.raises(DataInconsistencyError):
        load_data_dir(tmp_path)


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
        pytest.param('{"format": "whlab-truncated-data/2", "horizon": 3}', id="no-sha256"),
        pytest.param('{"format": "whlab-truncated-data/2", "sha256": ""}', id="no-horizon"),
    ],
)
def test_malformed_manifest_rejected(tmp_path, manifest):
    root = save_data_dir(truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 3), tmp_path / "d")
    (root / "manifest.json").write_text(manifest)
    with pytest.raises(DataInconsistencyError, match="malformed manifest.json"):
        load_data_dir(root)


@pytest.mark.parametrize(
    "key, value",
    [
        ("horizon", 3.7),
        ("horizon", 3.0),
        ("horizon", "3"),
        ("horizon", True),
        ("horizon", 0),
        ("horizon", -3),
    ],
)
def test_non_integer_manifest_field_rejected(tmp_path, key, value):
    # int() would load these silently, truncating 3.7 to 3
    root = save_data_dir(truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 3), tmp_path / "d")
    manifest = json.loads((root / "manifest.json").read_text())
    manifest[key] = value
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataInconsistencyError, match="must be an integer"):
        load_data_dir(root)


def test_missing_power_file_rejected(tmp_path):
    root = save_data_dir(truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 3), tmp_path / "d")
    (root / "restricted.f64").unlink()
    with pytest.raises(DataInconsistencyError, match="restricted.f64"):
        load_data_dir(root)


@pytest.mark.parametrize("nbytes", [0, 8, 9 * 8 - 1])
def test_table_size_must_be_a_nonzero_multiple_of_8_horizon(tmp_path, nbytes):
    # horizon 3 at width 3: 72 bytes
    root = save_data_dir(truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 3), tmp_path / "d")
    payload = (root / "restricted.f64").read_bytes()[:nbytes]
    (root / "restricted.f64").write_bytes(payload)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["sha256"] = hashlib.sha256(payload).hexdigest()
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataInconsistencyError, match="not a nonzero multiple of 8"):
        load_data_dir(root)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_weight_in_power_file_rejected(tmp_path, bad):
    root = save_data_dir(truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 3), tmp_path / "d")
    rewrite_table(root, 0, 1, bad)
    with pytest.raises(DataInconsistencyError, match="non-finite"):
        load_data_dir(root)


def test_negative_weight_in_table_rejected(tmp_path):
    root = save_data_dir(truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 3), tmp_path / "d")
    rewrite_table(root, 1, 1, -1e-9)
    with pytest.raises(DataInconsistencyError, match="negative weight"):
        load_data_dir(root)


def test_overweight_row_in_table_rejected(tmp_path):
    root = save_data_dir(truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 3), tmp_path / "d")
    rewrite_table(root, 2, 0, 0.9)
    with pytest.raises(DataInconsistencyError, match="restricted power 3 has total"):
        load_data_dir(root)


def test_truncated_data_rejects_non_finite_step_law():
    with pytest.raises(DomainError):
        truncated_data(lattice(-1, [0.5, float("nan"), 0.5]), 3)
