"""Half-line observation data: convolution powers restricted to k >= 0.

A :class:`TruncatedData` object is what every reconstruction routine sees,
and nothing else: the first ``horizon`` convolution powers of an unknown
distribution, each restricted to the nonnegative lattice.

On disk a data directory holds two files. ``restricted.f64`` is the dense
(horizon, W) table of :func:`packed_restricted` as raw little-endian
float64, row n-1 holding r_n on 0..W-1. ``manifest.json`` names the format,
the horizon and the sha256 of the table. Directories of the older
one-file-per-power format are refused.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataInconsistencyError, DomainError
from .lattice import MASS_TOL, LatticeDist, _half_line_walk, lattice

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


DATA_FORMAT = "whlab-truncated-data/2"
TABLE = "restricted.f64"


def save_data_dir(data: TruncatedData, directory: str | Path) -> Path:
    """Write the packed restricted powers as one float64 table plus a hashed
    manifest."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    payload = packed_restricted(data).astype("<f8", copy=False).tobytes()
    (root / TABLE).write_bytes(payload)
    sha256 = hashlib.sha256(payload).hexdigest()
    manifest = {"format": DATA_FORMAT, "horizon": data.horizon, "sha256": sha256}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return root


def _manifest_int(value, what: str) -> int:
    # int() would truncate 3.7 and parse "3"; bool is an int subclass
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError("%s must be an integer >= 1, got %r" % (what, value))
    return value


def load_data_dir(directory: str | Path) -> TruncatedData:
    """Load a data directory, verifying its format, horizon and table hash."""
    root = Path(directory)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise DataInconsistencyError("no manifest.json in %s" % root)
    try:
        manifest = json.loads(manifest_path.read_bytes())
        if not isinstance(manifest, dict) or manifest.get("format") != DATA_FORMAT:
            raise ValueError("format is not %r" % DATA_FORMAT)
        horizon = _manifest_int(manifest["horizon"], "horizon")
        sha256 = str(manifest["sha256"])
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise DataInconsistencyError(
            "malformed manifest.json in %s: %s: %s" % (root, type(exc).__name__, exc)
        ) from exc
    try:
        payload = (root / TABLE).read_bytes()
    except OSError as exc:
        raise DataInconsistencyError("cannot read %s: %s" % (TABLE, exc)) from exc
    if hashlib.sha256(payload).hexdigest() != sha256:
        raise DataInconsistencyError("hash mismatch for %s" % TABLE)
    if not payload or len(payload) % (8 * horizon):
        raise DataInconsistencyError(
            "%s holds %d bytes, not a nonzero multiple of 8 * horizon (%d)"
            % (TABLE, len(payload), horizon)
        )
    # no np.load: it would open zip archives and trust a header's shape
    rows = np.frombuffer(payload, dtype="<f8").reshape(horizon, -1)
    try:
        restricted = tuple(lattice(0, row) for row in rows)
    except DomainError as exc:
        raise DataInconsistencyError("invalid weight in %s: %s" % (TABLE, exc)) from exc
    return TruncatedData(horizon, restricted)
