"""Named step-distribution families used by demos, tests, and the CLI.

Every constructor returns a LatticeDist tagged with its family name.
Families with infinite support are truncated at an explicit cutoff and
never renormalized, so the clipped mass shows as ``1 - dist.total``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lattice import LatticeDist, _check_int, _check_window, delta, lattice

__all__ = [
    "GeneratedDist",
    "point_mass",
    "two_point",
    "uniform_window",
    "geometric_mixture",
    "power_tail_pair",
    "FAMILIES",
]

# Hurwitz zeta(3, 4) = sum_{n >= 4} n^-3, power_tail_pair's tail mass; the
# literal is float(scipy.special.zeta(3, 4)), so building the law loads no scipy
_ZETA_3_4 = 0.04001986612255725


@dataclass(frozen=True)
class GeneratedDist:
    family: str
    dist: LatticeDist


def point_mass(location: int) -> GeneratedDist:
    return GeneratedDist("point_mass", delta(location))


def two_point(down: int, up: int, p_up: float) -> GeneratedDist:
    down = _check_int("down", down, None)
    up = _check_int("up", up, down + 1)
    if not 0.0 < p_up < 1.0:
        raise DomainError("p_up must lie in (0, 1)")
    width = up - down
    _check_window(width + 1)
    weights = np.zeros(width + 1)
    weights[0] = 1.0 - p_up
    weights[-1] = p_up
    return GeneratedDist("two_point", lattice(down, weights))


def uniform_window(low: int, high: int) -> GeneratedDist:
    low = _check_int("low", low, None)
    high = _check_int("high", high, low)
    n = high - low + 1
    _check_window(n)
    return GeneratedDist("uniform_window", lattice(low, np.full(n, 1.0 / n)))


def geometric_mixture(
    atoms: tuple[float, ...],
    atom_weights: tuple[float, ...],
    shift: int = -1,
    cutoff: int = 200,
) -> GeneratedDist:
    """Mixture of geometrics on {0, 1, ...} shifted left: mu(shift + k) =
    sum_i w_i (1 - c_i) c_i^k, truncated at index cutoff."""
    try:
        atoms = tuple(float(c) for c in atoms)
        atom_weights = tuple(float(w) for w in atom_weights)
    except (TypeError, ValueError) as exc:
        raise DomainError("geometric atoms and atom_weights must be numbers: %s" % exc)
    if len(atoms) != len(atom_weights) or not atoms:
        raise DomainError("atoms and atom_weights must match and be nonempty")
    if any(not 0.0 < c < 1.0 for c in atoms):
        raise DomainError("geometric atoms must lie in (0, 1)")
    if any(w <= 0 for w in atom_weights) or abs(sum(atom_weights) - 1.0) > 1e-12:
        raise DomainError("atom_weights must be positive and sum to one")
    shift = _check_int("shift", shift, None)
    cutoff = _check_int("cutoff", cutoff, shift)
    n_terms = cutoff - shift + 1
    _check_window(n_terms)
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
    cutoff = _check_int("cutoff", cutoff, a + b)
    _check_window(cutoff + b)
    c = _ZETA_3_4
    weights = np.zeros(cutoff + b)
    weights[0] = weights[1] = (1.0 - c) / 2.0
    n = np.arange(a + b, cutoff + 1)
    weights[n + b - 1] = 1.0 / n.astype(float) ** 3
    return GeneratedDist("power_tail_pair", lattice(-(b - 1), weights))


FAMILIES = {
    "point_mass": point_mass,
    "two_point": two_point,
    "uniform_window": uniform_window,
    "geometric_mixture": geometric_mixture,
    "power_tail_pair": power_tail_pair,
}

