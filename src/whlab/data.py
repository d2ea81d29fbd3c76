"""Half-line observation data: convolution powers restricted to k >= 0.

A :class:`TruncatedData` object is what every reconstruction routine sees,
and nothing else: the first ``horizon`` convolution powers of an unknown
distribution, each restricted to the nonnegative lattice. It holds them as
one dense (horizon, W) float64 table, row n-1 holding r_n on 0..W-1, and
builds a power's :class:`~whlab.lattice.LatticeDist` only when asked.

On disk a data directory holds two files. ``restricted.f64`` is that table
as raw little-endian float64. ``manifest.json`` names the format, the
horizon and the sha256 of the table. Directories of the older
one-file-per-power format are refused.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataInconsistencyError, DomainError
from .lattice import (
    MASS_TOL,
    LatticeDist,
    _check_int,
    _clamp_negatives,
    _half_line_walk,
    _trim,
)

__all__ = [
    "TruncatedData",
    "truncated_data",
    "save_data_dir",
    "load_data_dir",
]


@dataclass(frozen=True, eq=False)
class TruncatedData:
    """Restricted convolution powers r_n = mu^{*n} on k >= 0, n = 1..horizon.

    ``table[n-1, k]`` is r_n(k); the table is read-only, at least one column
    wide, finite and nonnegative, and no row totals more than one.
    """

    horizon: int
    table: np.ndarray
    _powers: list = field(init=False, repr=False)

    def __post_init__(self):
        horizon = _check_int("horizon", self.horizon, 1)
        try:
            table = np.asarray(self.table, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DataInconsistencyError("table must hold numbers: %s" % exc) from exc
        if table.ndim != 2 or table.shape[0] != horizon or not table.shape[1]:
            raise DataInconsistencyError(
                "table of shape %r does not hold %d nonempty rows"
                % (table.shape, horizon)
            )
        # a NaN or infinite weight leaves its row total non-finite
        totals = table.sum(axis=1)
        finite = np.isfinite(totals)
        if not finite.all():
            raise DataInconsistencyError(
                "restricted power %d has a non-finite weight or total"
                % (int(finite.argmin()) + 1)
            )
        lows = table.min(axis=1)
        if lows.min() < 0.0:
            n = int((lows < 0.0).argmax())
            raise DataInconsistencyError(
                "restricted power %d has a negative weight %r" % (n + 1, float(lows[n]))
            )
        if totals.max() > 1.0 + MASS_TOL:
            n = int(totals.argmax())
            raise DataInconsistencyError(
                "restricted power %d has total %r above one" % (n + 1, float(totals[n]))
            )
        table.setflags(write=False)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_powers", [None] * horizon)

    def restricted_power(self, n: int) -> LatticeDist:
        """r_n for 1 <= n <= horizon, built from its table row on first use."""
        n = _check_int("power", n, None)
        if not 1 <= n <= self.horizon:
            raise DataInconsistencyError(
                "power %d outside horizon %d" % (n, self.horizon)
            )
        power = self._powers[n - 1]
        if power is None:
            power = LatticeDist(*_trim(0, self.table[n - 1]))
            self._powers[n - 1] = power
        return power

    @property
    def restricted(self) -> tuple[LatticeDist, ...]:
        """r_1, ..., r_N as LatticeDists."""
        return tuple(self.restricted_power(n) for n in range(1, self.horizon + 1))


def truncated_data(mu: LatticeDist, horizon: int) -> TruncatedData:
    """Forward-generate TruncatedData from a fully known distribution."""
    horizon = _check_int("horizon", horizon, 1)
    walk = _half_line_walk(mu, None, horizon)
    return TruncatedData(horizon, walk.table[:, : max(walk.hi, 1)])


# -- disk format ----------------------------------------------------------


DATA_FORMAT = "whlab-truncated-data/2"
TABLE = "restricted.f64"


def save_data_dir(data: TruncatedData, directory: str | Path) -> Path:
    """Write the restricted-power table as raw float64 plus a hashed manifest."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    payload = data.table.astype("<f8", copy=False).tobytes()
    (root / TABLE).write_bytes(payload)
    sha256 = hashlib.sha256(payload).hexdigest()
    manifest = {"format": DATA_FORMAT, "horizon": data.horizon, "sha256": sha256}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return root


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
        horizon = _check_int("horizon", manifest["horizon"], 1)
        sha256 = str(manifest["sha256"])
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
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
    table = np.frombuffer(payload, dtype="<f8").reshape(horizon, -1)
    # float noise may leave weights in [-1e-10, 0): zero them, as lattice() does;
    # a non-finite table goes through unchanged and is refused below
    if table.min() < 0.0 and np.isfinite(table).all():
        table = table.copy()
        try:
            _clamp_negatives(table)
        except DomainError as exc:
            raise DataInconsistencyError(
                "invalid weight in %s: %s" % (TABLE, exc)
            ) from exc
    return TruncatedData(horizon, table)
