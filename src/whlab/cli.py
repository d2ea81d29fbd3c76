"""Experiment runner around the library: factorize, verify, reconstruct,
roundtrip, and simulate, driven by a single JSON config document.

Exit codes: 0 success, 1 tolerance or statistical violation, 2 config
parse/validation failure (line-anchored message on stderr), 3 class
detection failure. Report bodies are deterministic functions of the config
bytes; the only timestamp sits on a leading comment line of CSV files so
bodies stay byte-comparable across runs. Every report embeds the sha256 of
the config document it came from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np

from .data import load_data_dir, truncated_data
from .errors import (
    ClassNotDetected,
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
from .montecarlo import censored_z, compare_empirical, sample_ladder
from .reconstruct import CLASS_NONE, DETECTOR_ORDER, auto_reconstruct

__all__ = ["main", "entrypoint", "parse_config", "ExperimentConfig"]

COMMANDS = ("factorize", "verify", "reconstruct", "roundtrip", "simulate")
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
    if isinstance(obj, complex):
        return _json_17g({"im": obj.imag, "re": obj.real}, indent)
    if isinstance(obj, Enum):
        return _json_17g(obj.value, indent)
    if isinstance(obj, str):
        return json.dumps(obj)
    return json.dumps(repr(obj))


def _csv_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt_float(float(v)).strip('"')
    return str(v)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(_json_17g(payload) + "\n")


def _write_csv(path: Path, config_hash: str, columns, rows) -> None:
    lines = [
        "# generated %s" % datetime.now(timezone.utc).isoformat(),
        "# config_sha256 %s" % config_hash,
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


# -- config parsing ---------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    config_path: Path
    sha256: str
    raw_text: str
    doc: dict
    output_dir: Path
    seed: int

    def key_line(self, key: str) -> int:
        needle = '"%s"' % key
        for i, line in enumerate(self.raw_text.splitlines(), start=1):
            if needle in line:
                return i
        return 1

    def _fail(self, key: str, message: str):
        raise ConfigError(message, line=self.key_line(key))

    def require(self, key: str):
        if key not in self.doc:
            raise ConfigError("missing required key %r" % key, line=1)
        return self.doc[key]

    def positive_int(self, key: str, default=None, minimum: int = 1) -> int:
        value = self.doc.get(key, default)
        if value is None:
            self.require(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            self._fail(key, "%r must be an integer >= %d" % (key, minimum))
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

    def t_values(self) -> np.ndarray:
        points = self.positive_int("t_points", default=DEFAULT_T_POINTS)
        return np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)

    def tolerance(self, name: str, default: float) -> float:
        table = self.doc.get("tolerances", {})
        if not isinstance(table, dict):
            self._fail("tolerances", "'tolerances' must be an object")
        value = table.get(name, default)
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
            self._fail("tolerances", "tolerance %r must be positive" % name)
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

    def distribution(self) -> GeneratedDist:
        spec = self.require("distribution")
        if not isinstance(spec, dict):
            self._fail("distribution", "'distribution' must be an object")
        if "file" in spec:
            path = Path(spec["file"])
            if not path.is_absolute():
                path = self.config_path.parent / path
            if not path.is_file():
                self._fail("distribution", "distribution file %s not found" % path)
            return custom_file(path)
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
        value = self.require("data_dir")
        path = Path(str(value))
        if not path.is_absolute():
            path = self.config_path.parent / path
        if not path.is_dir():
            self._fail("data_dir", "data directory %s not found" % path)
        return path


def parse_config(
    path: str | Path,
    command: str,
    out_override: str | None = None,
    seed_override: int | None = None,
) -> ExperimentConfig:
    config_path = Path(path)
    if not config_path.is_file():
        raise ConfigError("config file %s not found" % config_path)
    raw_bytes = config_path.read_bytes()
    raw_text = raw_bytes.decode("utf-8", errors="replace")
    try:
        doc = json.loads(raw_text)
    except json.JSONDecodeError as exc:
        raise ConfigError("invalid JSON: %s" % exc.msg, line=exc.lineno)
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object", line=1)

    # output_dir and seed are settled below, once the document has passed
    cfg = ExperimentConfig(
        command=command,
        config_path=config_path,
        sha256=hashlib.sha256(raw_bytes).hexdigest(),
        raw_text=raw_text,
        doc=doc,
        output_dir=Path("."),
        seed=0,
    )

    declared = doc.get("command")
    if declared is not None and declared != command:
        cfg._fail(
            "command",
            "config declares command %r but %r was invoked" % (declared, command),
        )

    if "horizon" in doc:
        cfg.positive_int("horizon")
    for key in ("seed", "n_samples", "max_steps", "t_points"):
        if key in doc:
            cfg.positive_int(key, minimum=0 if key == "seed" else 1)
    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        cfg._fail("tolerances", "'tolerances' must be an object")
    for name in tolerances:
        cfg.tolerance(name, 1.0)
    cfg.s_values()
    cfg.side()
    cfg.detectors()

    seed = seed_override if seed_override is not None else doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 1 << 64:
        cfg._fail("seed", "'seed' must be an integer in [0, 2^64)")

    if out_override is not None:
        out_dir = Path(out_override)
    elif "output_dir" in doc:
        out_dir = Path(str(doc["output_dir"]))
        if not out_dir.is_absolute():
            out_dir = config_path.parent / out_dir
    else:
        out_dir = Path(".")
    return replace(cfg, output_dir=out_dir, seed=seed)


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


def cmd_factorize(cfg: ExperimentConfig) -> int:
    dist = cfg.distribution()
    horizon = cfg.positive_int("horizon")
    report = verify_factorization(dist.dist, cfg.s_values(), cfg.t_values(), horizon)
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
    _write_json(
        cfg.output_dir / "factorize_report.json",
        {
            "command": "factorize",
            "config_sha256": cfg.sha256,
            "family": dist.family,
            "horizon": horizon,
            "n_s_values": len(report.s_values),
            "n_t_values": len(report.t_values),
            "max_residual": report.max_residual,
            "max_bound": report.max_bound,
        },
    )
    return 0


def cmd_verify(cfg: ExperimentConfig) -> int:
    dist = cfg.distribution()
    horizon = cfg.positive_int("horizon")
    slack = cfg.tolerance("residual", 1e-10)
    report = verify_factorization(dist.dist, cfg.s_values(), cfg.t_values(), horizon)
    allowed = report.bounds[:, None] + slack
    passed = bool(np.all(report.residuals <= allowed))
    per_s = [
        {
            "s": float(np.real(s)),
            "max_residual": float(report.residuals[i].max()),
            "allowed": float(allowed[i, 0]),
        }
        for i, s in enumerate(report.s_values)
    ]
    _write_json(
        cfg.output_dir / "verify_report.json",
        {
            "command": "verify",
            "config_sha256": cfg.sha256,
            "family": dist.family,
            "horizon": horizon,
            "residual_slack": slack,
            "max_residual": report.max_residual,
            "passed": passed,
            "per_s": per_s,
        },
    )
    return 0 if passed else 1


def cmd_reconstruct(cfg: ExperimentConfig) -> int:
    data = load_data_dir(cfg.data_dir())
    report = auto_reconstruct(data, detectors=cfg.detectors())
    payload = report.to_dict()
    payload["command"] = "reconstruct"
    payload["config_sha256"] = cfg.sha256
    payload["horizon"] = data.horizon
    _write_json(cfg.output_dir / "reconstruct_report.json", payload)
    return 0 if report.detected_class != CLASS_NONE else 3


def cmd_roundtrip(cfg: ExperimentConfig) -> int:
    dist = cfg.distribution()
    horizon = cfg.positive_int("horizon")
    tol = cfg.tolerance("tv", 1e-6)
    data = truncated_data(dist.dist, horizon)
    report = auto_reconstruct(data, detectors=cfg.detectors(), truth=dist.dist)
    tv = report.residuals.get("tv_distance")
    detected = report.detected_class != CLASS_NONE
    passed = detected and tv is not None and tv <= tol
    payload = report.to_dict()
    payload.update(
        {
            "command": "roundtrip",
            "config_sha256": cfg.sha256,
            "family": dist.family,
            "horizon": horizon,
            "tv_tolerance": tol,
            "passed": passed,
        }
    )
    _write_json(cfg.output_dir / "roundtrip_report.json", payload)
    if not detected:
        return 3
    return 0 if passed else 1


def cmd_simulate(cfg: ExperimentConfig) -> int:
    dist = cfg.distribution()
    if not dist.dist.is_proper():
        cfg._fail("distribution", "simulation needs a proper distribution")
    side = cfg.side()
    n_samples = cfg.positive_int("n_samples", default=100_000)
    max_steps = cfg.positive_int("max_steps", default=10_000)
    emp = sample_ladder(dist.dist, side, n_samples, max_steps, cfg.seed)
    exact = ladder_law(dist.dist, side, max_steps)
    payload = {
        "command": "simulate",
        "config_sha256": cfg.sha256,
        "family": dist.family,
        "side": side,
        "seed": cfg.seed,
        "n_samples": n_samples,
        "max_steps": max_steps,
        "censored_count": emp.censored_count,
    }
    try:
        comparison = compare_empirical(exact, emp)
    except InsufficientSamplesError as exc:
        payload["error"] = str(exc)
        _write_json(cfg.output_dir / "simulate_report.json", payload)
        print("whlab simulate: %s" % exc, file=sys.stderr)
        return 1
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
    _write_json(cfg.output_dir / "simulate_report.json", payload)
    return 0 if comparison.passed and censored_ok else 1


RUNNERS = {
    "factorize": cmd_factorize,
    "verify": cmd_verify,
    "reconstruct": cmd_reconstruct,
    "roundtrip": cmd_roundtrip,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="whlab",
        description="Random-walk factorization and recovery experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config document")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(
            args.config,
            command=args.command,
            out_override=args.out,
            seed_override=args.seed,
        )
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        return RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print("whlab: config error: %s" % exc, file=sys.stderr)
        return 2
    except (DataInconsistencyError, DomainError) as exc:
        print("whlab: invalid input: %s" % exc, file=sys.stderr)
        return 2
    except ClassNotDetected as exc:
        print("whlab: detection failure: %s" % exc, file=sys.stderr)
        return 3
    except WhlabError as exc:
        print("whlab: %s" % exc, file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
