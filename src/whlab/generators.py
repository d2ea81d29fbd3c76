"""Named step-distribution families used by demos, tests, and the CLI.

Every constructor returns a LatticeDist tagged with its family name.
Families with infinite support are truncated at an explicit cutoff and
never renormalized, so the clipped mass shows as ``1 - dist.total``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import zeta

from .errors import ConfigError, DomainError
from .lattice import LatticeDist, delta, lattice

__all__ = [
    "GeneratedDist",
    "point_mass",
    "two_point",
    "uniform_window",
    "geometric_mixture",
    "power_tail_pair",
    "custom_file",
    "make_distribution",
    "FAMILIES",
]


@dataclass(frozen=True)
class GeneratedDist:
    family: str
    dist: LatticeDist


def point_mass(location: int) -> GeneratedDist:
    return GeneratedDist("point_mass", delta(location))


def two_point(down: int, up: int, p_up: float) -> GeneratedDist:
    if down >= up:
        raise DomainError("two_point needs down < up")
    if not 0.0 < p_up < 1.0:
        raise DomainError("p_up must lie in (0, 1)")
    width = up - down
    weights = np.zeros(width + 1)
    weights[0] = 1.0 - p_up
    weights[-1] = p_up
    return GeneratedDist("two_point", lattice(down, weights))


def uniform_window(low: int, high: int) -> GeneratedDist:
    if low > high:
        raise DomainError("uniform_window needs low <= high")
    n = high - low + 1
    return GeneratedDist("uniform_window", lattice(low, np.full(n, 1.0 / n)))


def geometric_mixture(
    atoms: tuple[float, ...],
    atom_weights: tuple[float, ...],
    shift: int = -1,
    cutoff: int = 200,
) -> GeneratedDist:
    """Mixture of geometrics on {0, 1, ...} shifted left: mu(shift + k) =
    sum_i w_i (1 - c_i) c_i^k, truncated at index cutoff."""
    atoms = tuple(float(c) for c in atoms)
    atom_weights = tuple(float(w) for w in atom_weights)
    if len(atoms) != len(atom_weights) or not atoms:
        raise DomainError("atoms and atom_weights must match and be nonempty")
    if any(not 0.0 < c < 1.0 for c in atoms):
        raise DomainError("geometric atoms must lie in (0, 1)")
    if any(w <= 0 for w in atom_weights) or abs(sum(atom_weights) - 1.0) > 1e-12:
        raise DomainError("atom_weights must be positive and sum to one")
    n_terms = cutoff - shift + 1
    k = np.arange(n_terms)
    weights = np.zeros(n_terms)
    for c, w in zip(atoms, atom_weights):
        weights += w * (1.0 - c) * c**k
    return GeneratedDist("geometric_mixture", lattice(shift, weights))


def power_tail_pair(cutoff: int = 200) -> GeneratedDist:
    """Two negative atoms at -(b-1) and -(b-2) paired with a cubic power
    tail mu(n) = n^-3 for n >= a + b, with (a, b) = (1, 3); mass splits so
    the total is one.

    Negative drift, no finite positive exponential moment, and the first
    two restricted powers vanish on 0..a and 0..2a respectively, which is
    the regime the triangular solver targets.  Truncation keeps the exact
    tail mass sum_{n > cutoff} n^-3 out of the weights, so the total falls
    short of one by that much.
    """
    a, b = 1, 3
    if cutoff < a + b:
        raise DomainError("cutoff must reach the tail start")
    c = float(zeta(3, a + b))
    weights = np.zeros(cutoff + b)
    weights[0] = weights[1] = (1.0 - c) / 2.0
    n = np.arange(a + b, cutoff + 1)
    weights[n + b - 1] = 1.0 / n.astype(float) ** 3
    return GeneratedDist("power_tail_pair", lattice(-(b - 1), weights))


def custom_file(path: str | Path) -> GeneratedDist:
    """Load a distribution from JSON: {"min_index": int, "weights": [...]}.

    Other keys are ignored; mass cut off when the file was written shows as
    ``1 - dist.total``.
    """
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read distribution file %s: %s" % (path, exc))
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError("invalid JSON in %s: %s" % (path, exc), line=exc.lineno)
    if not isinstance(payload, dict) or "min_index" not in payload or "weights" not in payload:
        raise ConfigError("custom file needs min_index and weights keys")
    try:
        dist = lattice(payload["min_index"], np.asarray(payload["weights"], dtype=float))
    except (TypeError, ValueError, DomainError) as exc:
        raise ConfigError("custom file does not define a distribution: %s" % exc)
    return GeneratedDist("custom_file", dist)


FAMILIES = {
    "point_mass": point_mass,
    "two_point": two_point,
    "uniform_window": uniform_window,
    "geometric_mixture": geometric_mixture,
    "power_tail_pair": power_tail_pair,
}


def make_distribution(family: str, parameters: dict) -> GeneratedDist:
    if family not in FAMILIES:
        raise ConfigError(
            "unknown family %r; expected one of %s" % (family, sorted(FAMILIES))
        )
    builder = FAMILIES[family]
    try:
        return builder(**parameters)
    except TypeError as exc:
        raise ConfigError("bad parameters for %s: %s" % (family, exc))
