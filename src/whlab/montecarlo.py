"""Statistical oracle: seeded walk simulation against the exact ladder DP.

Uniform deviates come from a counter-based hash u(seed, sample, step), so
the stream attached to one sample never depends on how samples are batched
or partitioned across workers: aggregation is order-independent and
bit-reproducible by contract. Steps are drawn by inverse CDF and the first
boundary crossing per the side convention is recorded, with explicit
censoring when max_steps is hit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientSamplesError
from .ladder import DOWNWARD, UPWARD, LadderLaw
from .lattice import LatticeDist

__all__ = [
    "WalkSample",
    "walk_sample",
    "EmpiricalLadder",
    "sample_ladder",
    "ComparisonReport",
    "compare_empirical",
    "censored_z",
]

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _uniforms(seed: int, samples: np.ndarray, step: int) -> np.ndarray:
    """Deterministic u in [0, 1) per (seed, sample index, step index)."""
    keys = _mix64(np.uint64(seed) + _GOLD * (samples.astype(np.uint64) + np.uint64(1)))
    # scalar uint64 products warn on wraparound, so reduce in Python ints
    step_key = np.uint64((0x9E3779B97F4A7C15 * step) & 0xFFFFFFFFFFFFFFFF)
    bits = _mix64(keys + step_key)
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def _step_tables(mu: LatticeDist):
    if not mu.is_proper():
        raise DomainError("step distribution must be proper")
    values = mu.indices()
    cdf = np.cumsum(mu.weights)
    cdf[-1] = 1.0
    return values, cdf


@dataclass(frozen=True)
class WalkSample:
    """One simulated walk up to its first crossing or censoring."""

    seed: int
    steps_taken: int
    ladder_epoch: int | None
    ladder_height: int | None
    censored: bool


def _crossed(side: str, position: int) -> bool:
    return position >= 0 if side == UPWARD else position < 0


def walk_sample(
    mu: LatticeDist, side: str, seed: int, sample_index: int, max_steps: int = 10_000
) -> WalkSample:
    """Reference single-walk sampler; bit-identical to the batch sampler."""
    if side not in (UPWARD, DOWNWARD):
        raise DomainError("side must be %r or %r" % (UPWARD, DOWNWARD))
    values, cdf = _step_tables(mu)
    idx = np.array([sample_index])
    position = 0
    for step in range(1, max_steps + 1):
        u = _uniforms(seed, idx, step)[0]
        position += int(values[np.searchsorted(cdf, u, side="right")])
        if _crossed(side, position):
            return WalkSample(seed, step, step, position, False)
    return WalkSample(seed, max_steps, None, None, True)


@dataclass(frozen=True, eq=False)
class EmpiricalLadder:
    """Crossing counts per (epoch, height) cell plus censoring accounting."""

    side: str
    counts: dict[tuple[int, int], int]
    n_samples: int
    censored_count: int
    max_steps: int
    seed: int

    def __post_init__(self):
        recorded = sum(self.counts.values()) + self.censored_count
        if recorded != self.n_samples:
            raise DomainError("counts plus censored must equal n_samples")

    def frequency(self, n: int, k: int) -> float:
        return self.counts.get((n, k), 0) / self.n_samples


def sample_ladder(
    mu: LatticeDist,
    side: str,
    n_samples: int,
    max_steps: int = 10_000,
    seed: int = 0,
) -> EmpiricalLadder:
    if side not in (UPWARD, DOWNWARD):
        raise DomainError("side must be %r or %r" % (UPWARD, DOWNWARD))
    if n_samples < 1:
        raise DomainError("n_samples must be positive")
    values, cdf = _step_tables(mu)
    active = np.arange(n_samples, dtype=np.uint64)
    positions = np.zeros(n_samples, dtype=np.int64)
    counts: dict[tuple[int, int], int] = {}
    for step in range(1, max_steps + 1):
        if active.size == 0:
            break
        u = _uniforms(seed, active, step)
        moves = values[np.searchsorted(cdf, u, side="right")]
        positions = positions + moves
        hit = positions >= 0 if side == UPWARD else positions < 0
        if np.any(hit):
            heights, freq = np.unique(positions[hit], return_counts=True)
            for k, c in zip(heights, freq):
                cell = (step, int(k))
                counts[cell] = counts.get(cell, 0) + int(c)
            active = active[~hit]
            positions = positions[~hit]
    return EmpiricalLadder(side, counts, n_samples, int(active.size), max_steps, seed)


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    max_z: float
    passed: bool
    n_cells: int
    cells: tuple[tuple[int, int, int, float, float], ...]  # (n, k, count, expect, z)


# cells whose expected (or observed) count is below this stay out of the verdict
MIN_EXPECTED = 25.0


def _cell_z(observed: int, n_samples: int, p: float) -> float:
    expected = n_samples * p
    var = n_samples * p * (1.0 - p)
    if var < 1e-12:
        return 0.0 if observed == round(expected) else float("inf")
    return (observed - expected) / np.sqrt(var)


def compare_empirical(exact: LadderLaw, emp: EmpiricalLadder) -> ComparisonReport:
    """Per-cell z-scores of observed counts against exact DP masses.

    Only cells with expected or observed count >= MIN_EXPECTED enter the
    verdict; an observed cell with near-zero exact mass fails outright.
    """
    if exact.side != emp.side:
        raise DomainError("sides differ: %s vs %s" % (exact.side, emp.side))
    if exact.horizon < emp.max_steps:
        raise DomainError("exact law horizon is shorter than the sampler's range")
    cells = []
    seen = set()
    expected = emp.n_samples * exact.masses
    for row, col in zip(*np.nonzero(expected >= MIN_EXPECTED)):
        n, k = int(row) + 1, int(exact.heights[col])
        p = float(exact.masses[row, col])
        observed = emp.counts.get((n, k), 0)
        z = _cell_z(observed, emp.n_samples, p)
        cells.append((n, k, observed, float(expected[row, col]), float(z)))
        seen.add((n, k))
    for (n, k), observed in emp.counts.items():
        if (n, k) in seen or observed < MIN_EXPECTED:
            continue
        p = exact.mass(n, k)
        z = _cell_z(observed, emp.n_samples, p)
        cells.append((n, k, observed, emp.n_samples * p, float(z)))
    if not cells:
        raise InsufficientSamplesError(
            "no cell reaches the expected-count threshold %g" % MIN_EXPECTED
        )
    max_z = max(abs(c[4]) for c in cells)
    return ComparisonReport(
        max_z=float(max_z),
        passed=bool(max_z <= 4.0),
        n_cells=len(cells),
        cells=tuple(sorted(cells)),
    )


def censored_z(exact: LadderLaw, emp: EmpiricalLadder) -> float:
    """z-score of the censored fraction against the DP alive mass P(tau > max_steps)."""
    if exact.side != emp.side:
        raise DomainError("sides differ: %s vs %s" % (exact.side, emp.side))
    if exact.horizon != emp.max_steps:
        raise DomainError(
            "exact law horizon %d differs from the sampler's max_steps %d"
            % (exact.horizon, emp.max_steps)
        )
    return _cell_z(emp.censored_count, emp.n_samples, float(exact.survival[-1]))
