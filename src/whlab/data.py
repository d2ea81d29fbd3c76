"""Half-line observation data: convolution powers restricted to k >= 0.

A :class:`TruncatedData` object is what every reconstruction routine sees,
and nothing else: the first ``horizon`` convolution powers of an unknown
distribution, each restricted to the nonnegative lattice. The on-disk form
is a directory of per-power JSON files plus a manifest with hashes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataInconsistencyError
from .lattice import MASS_TOL, LatticeDist, _half_line_walk

__all__ = [
    "TruncatedData",
    "truncated_data",
    "packed_restricted",
    "save_data_dir",
    "load_data_dir",
]


@dataclass(frozen=True)
class TruncatedData:
    """Restricted convolution powers r_n = mu^{*n} on k >= 0, n = 1..horizon."""

    horizon: int
    restricted: tuple[LatticeDist, ...]

    def __post_init__(self):
        if self.horizon != len(self.restricted):
            raise DataInconsistencyError("horizon does not match table length")
        if self.horizon < 1:
            raise DataInconsistencyError("horizon must be at least 1")
        for n, r in enumerate(self.restricted, start=1):
            if not r.is_zero and r.min_index < 0:
                raise DataInconsistencyError(
                    "restricted power %d carries mass below the origin" % n
                )
            if r.total > 1.0 + MASS_TOL:
                raise DataInconsistencyError(
                    "restricted power %d has total %r above one" % (n, r.total)
                )

    def restricted_power(self, n: int) -> LatticeDist:
        """r_n for 1 <= n <= horizon."""
        if not 1 <= n <= self.horizon:
            raise DataInconsistencyError(
                "power %d outside horizon %d" % (n, self.horizon)
            )
        return self.restricted[n - 1]

    def totals(self):
        return [r.total for r in self.restricted]


def truncated_data(mu: LatticeDist, horizon: int) -> TruncatedData:
    """Forward-generate TruncatedData from a fully known distribution."""
    if horizon < 1:
        raise DataInconsistencyError("horizon must be at least 1")
    walk = _half_line_walk(mu, None, horizon)
    return TruncatedData(horizon, tuple(LatticeDist(k, w) for k, w in walk.crossings))


# -- disk format ----------------------------------------------------------


def packed_restricted(data: TruncatedData) -> np.ndarray:
    """Dense (horizon, width) matrix with row n-1 holding restricted(n)."""
    width = max((r.max_index + 1 if not r.is_zero else 1) for r in data.restricted)
    out = np.zeros((data.horizon, width))
    for i, r in enumerate(data.restricted):
        if not r.is_zero:
            out[i, r.min_index : r.max_index + 1] = r.weights
    return out


def _sha256_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def save_data_dir(data: TruncatedData, directory: str | Path) -> Path:
    """Write one JSON file per restricted power plus a hashed manifest."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for n in range(1, data.horizon + 1):
        name = "restricted_%04d.json" % n
        payload = data.restricted_power(n).to_json().encode()
        (root / name).write_bytes(payload)
        entries.append({"n": n, "file": name, "sha256": _sha256_bytes(payload)})
    manifest = {"format": "whlab-truncated-data", "horizon": data.horizon, "powers": entries}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return root


def load_data_dir(directory: str | Path) -> TruncatedData:
    """Load a data directory, verifying the manifest hashes."""
    root = Path(directory)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise DataInconsistencyError("no manifest.json in %s" % root)
    try:
        manifest = json.loads(manifest_path.read_bytes())
        horizon = int(manifest["horizon"])
        entries = [(int(e["n"]), str(e["file"]), str(e["sha256"])) for e in manifest["powers"]]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise DataInconsistencyError(
            "malformed manifest.json in %s: %s: %s" % (root, type(exc).__name__, exc)
        ) from exc
    table: dict[int, LatticeDist] = {}
    for n, name, sha256 in entries:
        # a plain file name: "../x.json" or an absolute path would read
        # outside the data directory
        if name in ("", "..") or Path(name).name != name:
            raise DataInconsistencyError("manifest file %r is not a plain file name" % name)
        try:
            payload = (root / name).read_bytes()
            if _sha256_bytes(payload) != sha256:
                raise DataInconsistencyError("hash mismatch for %s" % name)
            table[n] = LatticeDist.from_json(payload.decode())
        except (OSError, TypeError, ValueError) as exc:
            raise DataInconsistencyError("invalid power file %s: %s" % (name, exc)) from exc
    if len(table) != horizon or sorted(table) != list(range(1, horizon + 1)):
        raise DataInconsistencyError("manifest powers do not cover 1..horizon")
    return TruncatedData(horizon, tuple(table[n] for n in range(1, horizon + 1)))
