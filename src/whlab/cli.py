"""Experiment runner around the library: factorize, verify, reconstruct,
roundtrip, and simulate, driven by a single JSON config document.

Exit codes: 0 success, 1 tolerance or statistical violation, 2 config
parse/validation failure (line-anchored message on stderr, a ``t_points``
past MAX_WINDOW included) or invalid input (a lattice window or r_n table
past MAX_WINDOW, or a walk table past MAX_TABLE entries, included), 3 when
reconstruct or roundtrip detects no class. Report bodies are deterministic
functions of the config bytes (``simulate`` takes its seed from the
``"seed"`` key, default 0); the only timestamp sits on a leading comment
line of CSV files so bodies stay byte-comparable across runs. Each runner
returns its report payload and exit code, and ``main`` alone adds the
command name and the sha256 of the config document and writes
``<command>_report.json``; runners write their own CSV files.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .data import load_data_dir, truncated_data
from .errors import (
    ConfigError,
    DataInconsistencyError,
    DomainError,
    InsufficientSamplesError,
    WhlabError,
)
from .generators import GeneratedDist, custom_file, make_distribution
from .ladder import (
    DOWNWARD,
    UPWARD,
    FactorizationReport,
    ladder_law,
    verify_factorization,
)
from .lattice import MAX_WINDOW, tv_distance
from .montecarlo import censored_z, compare_empirical, sample_ladder
from .reconstruct import CLASS_NONE, DETECTOR_ORDER, auto_reconstruct

__all__ = ["main", "entrypoint", "parse_config", "ExperimentConfig"]

DEFAULT_S_VALUES = tuple(round(0.1 * k, 1) for k in range(1, 10))
DEFAULT_T_POINTS = 32


# -- deterministic serialization ------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def _json_17g(obj, indent: int = 0) -> str:
    """JSON text with sorted keys and floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            "%s%s: %s" % (inner, json.dumps(str(k)), _json_17g(obj[k], indent + 1))
            for k in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = ["%s%s" % (inner, _json_17g(v, indent + 1)) for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)) or obj is None:
        return json.dumps(None if obj is None else bool(obj))
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    # a repr would carry an address and break byte-identical bodies
    raise TypeError("cannot serialize %s into a report" % type(obj).__name__)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(_json_17g(payload) + "\n")


def _write_csv(path: Path, config_hash: str, columns, rows) -> None:
    lines = [
        "# generated %s" % datetime.now(timezone.utc).isoformat(),
        "# config_sha256 %s" % config_hash,
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_json_17g(v).strip('"') for v in row))
    path.write_text("\n".join(lines) + "\n")


# -- config parsing ---------------------------------------------------------


def _beside(config_path: Path, value) -> Path:
    """A path the config names; a relative one starts at the config's directory."""
    return config_path.parent / str(value)


@dataclass(frozen=True)
class ExperimentConfig:
    config_path: Path
    sha256: str
    raw_text: str
    doc: dict
    output_dir: Path

    def key_line(self, key: str) -> int:
        """Line of the first `"key":`; 1 when a JSON escape hides the key."""
        found = re.search(r'"%s"\s*:' % re.escape(key), self.raw_text)
        return 1 if found is None else self.raw_text.count("\n", 0, found.start()) + 1

    def _fail(self, key: str, message: str):
        raise ConfigError(message, line=self.key_line(key))

    def require(self, key: str):
        if key not in self.doc:
            raise ConfigError("missing required key %r" % key, line=1)
        return self.doc[key]

    def positive_int(self, key: str, default=None) -> int:
        value = self.doc.get(key, default)
        if value is None:
            self.require(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            self._fail(key, "%r must be an integer >= 1" % key)
        return value

    def s_values(self) -> tuple[float, ...]:
        values = self.doc.get("s_values", list(DEFAULT_S_VALUES))
        if not isinstance(values, list) or not values:
            self._fail("s_values", "'s_values' must be a nonempty list")
        out = []
        for v in values:
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not abs(v) < 1.0:
                self._fail("s_values", "grid values must satisfy |s| < 1, got %r" % (v,))
            out.append(float(v))
        return tuple(out)

    def t_points(self) -> int:
        points = self.positive_int("t_points", default=DEFAULT_T_POINTS)
        if points > MAX_WINDOW:
            self._fail("t_points", "'t_points' must be at most %d" % MAX_WINDOW)
        return points

    def t_values(self) -> np.ndarray:
        return np.linspace(0.0, 2.0 * np.pi, self.t_points(), endpoint=False)

    def tolerance(self, name: str, default: float) -> float:
        # parse_config has already refused a "tolerances" that is not an object
        value = self.doc.get("tolerances", {}).get(name, default)
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and 0 < value < math.inf):
            self._fail("tolerances", "tolerance %r must be finite and positive" % name)
        return float(value)

    def side(self) -> str:
        value = self.doc.get("side", UPWARD)
        if value not in (UPWARD, DOWNWARD):
            self._fail("side", "'side' must be %r or %r" % (UPWARD, DOWNWARD))
        return value

    def detectors(self):
        value = self.doc.get("detectors")
        if value is None:
            return None
        if not isinstance(value, list) or not value:
            self._fail("detectors", "'detectors' must be a nonempty list")
        for name in value:
            if name not in DETECTOR_ORDER:
                self._fail(
                    "detectors",
                    "unknown detector %r; expected a subset of %s"
                    % (name, list(DETECTOR_ORDER)),
                )
        return tuple(value)

    def seed(self) -> int:
        value = self.doc.get("seed", 0)
        if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < 1 << 64:
            self._fail("seed", "'seed' must be an integer in [0, 2^64)")
        return value

    def distribution(self) -> GeneratedDist:
        spec = self.require("distribution")
        if not isinstance(spec, dict):
            self._fail("distribution", "'distribution' must be an object")
        if "file" in spec:
            path = _beside(self.config_path, spec["file"])
            if not path.is_file():
                self._fail("distribution", "distribution file %s not found" % path)
            try:
                return custom_file(path)
            except ConfigError as exc:
                self._fail("distribution", str(exc))
        if "family" not in spec:
            self._fail("distribution", "'distribution' needs 'family' or 'file'")
        parameters = spec.get("parameters", {})
        if not isinstance(parameters, dict):
            self._fail("distribution", "'parameters' must be an object")
        try:
            return make_distribution(spec["family"], parameters)
        except ConfigError as exc:
            self._fail("distribution", str(exc))
        except (DomainError, DataInconsistencyError) as exc:
            self._fail("distribution", "invalid distribution: %s" % exc)

    def data_dir(self) -> Path:
        path = _beside(self.config_path, self.require("data_dir"))
        if not path.is_dir():
            self._fail("data_dir", "data directory %s not found" % path)
        return path


def parse_config(
    path: str | Path, command: str, out_override: str | None = None
) -> ExperimentConfig:
    config_path = Path(path)
    if not config_path.is_file():
        raise ConfigError("config file %s not found" % config_path)
    raw_bytes = config_path.read_bytes()
    try:
        raw_text = raw_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw_bytes.count(b"\n", 0, exc.start) + 1
        message = "config is not UTF-8: %s at byte %d" % (exc.reason, exc.start)
        raise ConfigError(message, line=line)
    try:
        doc = json.loads(raw_text)
    except json.JSONDecodeError as exc:
        raise ConfigError("invalid JSON: %s" % exc.msg, line=exc.lineno)
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object", line=1)

    if out_override is not None:
        out_dir = Path(out_override)
    elif "output_dir" in doc:
        out_dir = _beside(config_path, doc["output_dir"])
    else:
        out_dir = Path(".")
    cfg = ExperimentConfig(
        config_path=config_path,
        sha256=hashlib.sha256(raw_bytes).hexdigest(),
        raw_text=raw_text,
        doc=doc,
        output_dir=out_dir,
    )

    declared = doc.get("command")
    if declared is not None and declared != command:
        cfg._fail(
            "command",
            "config declares command %r but %r was invoked" % (declared, command),
        )

    for key in ("horizon", "n_samples", "max_steps"):
        if key in doc:
            cfg.positive_int(key)
    cfg.t_points()
    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        cfg._fail("tolerances", "'tolerances' must be an object")
    for name in tolerances:
        if name != "tv":
            cfg._fail("tolerances", "unknown tolerance %r; expected 'tv'" % name)
        cfg.tolerance(name, 1.0)
    cfg.s_values()
    cfg.side()
    cfg.detectors()
    cfg.seed()
    return cfg


# -- command runners ----------------------------------------------------------


def _factorization_rows(report: FactorizationReport):
    for i, s in enumerate(report.s_values):
        for j, t in enumerate(report.t_values):
            plus = report.chi_plus[i, j]
            minus = report.chi_minus[i, j]
            yield (
                s.real,
                t,
                plus.real,
                plus.imag,
                minus.real,
                minus.imag,
                report.residuals[i, j],
                report.bounds[i],
            )


def _factorization(cfg: ExperimentConfig):
    """The distribution, horizon and factorization report of the config."""
    dist = cfg.distribution()
    horizon = cfg.positive_int("horizon")
    report = verify_factorization(dist.dist, cfg.s_values(), cfg.t_values(), horizon)
    return dist, horizon, report


def cmd_factorize(cfg: ExperimentConfig):
    dist, horizon, report = _factorization(cfg)
    _write_csv(
        cfg.output_dir / "factorization.csv",
        cfg.sha256,
        (
            "s",
            "t",
            "chi_plus_re",
            "chi_plus_im",
            "chi_minus_re",
            "chi_minus_im",
            "residual",
            "bound",
        ),
        _factorization_rows(report),
    )
    return {
        "family": dist.family,
        "horizon": horizon,
        "n_s_values": len(report.s_values),
        "n_t_values": len(report.t_values),
        "max_residual": report.max_residual,
        "max_bound": report.max_bound,
    }, 0


def cmd_verify(cfg: ExperimentConfig):
    dist, horizon, report = _factorization(cfg)
    allowed = (report.bounds + report.roundoff)[:, None]
    passed = bool(np.all(report.residuals <= allowed))
    per_s = [
        {
            "s": float(np.real(s)),
            "max_residual": float(report.residuals[i].max()),
            "allowed": float(allowed[i, 0]),
        }
        for i, s in enumerate(report.s_values)
    ]
    return {
        "family": dist.family,
        "horizon": horizon,
        "max_residual": report.max_residual,
        "passed": passed,
        "per_s": per_s,
    }, 0 if passed else 1


def cmd_reconstruct(cfg: ExperimentConfig):
    data = load_data_dir(cfg.data_dir())
    report = auto_reconstruct(data, detectors=cfg.detectors())
    payload = report.to_dict()
    payload["horizon"] = data.horizon
    return payload, 0 if report.detected_class != CLASS_NONE else 3


def cmd_roundtrip(cfg: ExperimentConfig):
    dist = cfg.distribution()
    horizon = cfg.positive_int("horizon")
    tol = cfg.tolerance("tv", 1e-6)
    data = truncated_data(dist.dist, horizon)
    report = auto_reconstruct(data, detectors=cfg.detectors())
    detected = report.detected_class != CLASS_NONE
    payload = report.to_dict()
    passed = False
    if detected:
        tv = tv_distance(report.recovered, dist.dist)
        payload["residuals"] = {**report.residuals, "tv_distance": tv}
        passed = tv <= tol
    payload.update(
        {
            "family": dist.family,
            "horizon": horizon,
            "tv_tolerance": tol,
            "passed": passed,
        }
    )
    if not detected:
        return payload, 3
    return payload, 0 if passed else 1


def cmd_simulate(cfg: ExperimentConfig):
    dist = cfg.distribution()
    if not dist.dist.is_proper():
        cfg._fail("distribution", "simulation needs a proper distribution")
    side = cfg.side()
    n_samples = cfg.positive_int("n_samples", default=100_000)
    max_steps = cfg.positive_int("max_steps", default=10_000)
    seed = cfg.seed()
    # the exact law first: a max_steps whose table would pass MAX_TABLE
    # entries is refused at once, not after hours of sampled walks
    exact = ladder_law(dist.dist, side, max_steps)
    emp = sample_ladder(dist.dist, side, n_samples, max_steps, seed)
    payload = {
        "family": dist.family,
        "side": side,
        "seed": seed,
        "n_samples": n_samples,
        "max_steps": max_steps,
        "censored_count": emp.censored_count,
    }
    try:
        comparison = compare_empirical(exact, emp)
    except InsufficientSamplesError as exc:
        payload["error"] = str(exc)
        print("whlab simulate: %s" % exc, file=sys.stderr)
        return payload, 1
    cz = censored_z(exact, emp)
    rows = (
        (n, k, count, expected / emp.n_samples, z)
        for n, k, count, expected, z in comparison.cells
    )
    _write_csv(
        cfg.output_dir / "empirical.csv",
        cfg.sha256,
        ("n", "k", "count", "exact_mass", "z"),
        rows,
    )
    censored_ok = abs(cz) <= 4.0
    payload.update(
        {
            "max_z": comparison.max_z,
            "n_cells": comparison.n_cells,
            "cells_passed": comparison.passed,
            "censored_z": cz,
            "censored_ok": censored_ok,
            "passed": comparison.passed and censored_ok,
        }
    )
    return payload, 0 if comparison.passed and censored_ok else 1


RUNNERS = {
    "factorize": cmd_factorize,
    "verify": cmd_verify,
    "reconstruct": cmd_reconstruct,
    "roundtrip": cmd_roundtrip,
    "simulate": cmd_simulate,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="whlab",
        description="Random-walk factorization and recovery experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config document")
        p.add_argument("--out", default=None, help="output directory override")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, command=args.command, out_override=args.out)
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        payload, code = RUNNERS[args.command](cfg)
        payload.update(command=args.command, config_sha256=cfg.sha256)
        _write_json(cfg.output_dir / ("%s_report.json" % args.command), payload)
        return code
    except ConfigError as exc:
        print("whlab: config error: %s" % exc, file=sys.stderr)
        return 2
    except (DataInconsistencyError, DomainError) as exc:
        print("whlab: invalid input: %s" % exc, file=sys.stderr)
        return 2
    except WhlabError as exc:
        print("whlab: %s" % exc, file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
