"""Statistical oracle: seeded walk simulation against the exact ladder DP.

Deviates come from a counter-based hash of (seed, sample, step): each
sample's key is mixed once from (seed, sample index), and the deviate of
step n is the splitmix64 finalizer of that key plus a key for n. No deviate
depends on which other samples or steps are drawn with it, so the counts
cannot depend on how the sampler groups its work: ``sample_ladder`` draws
blocks of steps for all walks still running, ``walk_sample`` draws one step
at a time for one walk, and the two agree walk for walk. Steps are drawn by
inverse CDF; the first boundary crossing per the side convention is
recorded, with explicit censoring when max_steps is hit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientSamplesError
from .ladder import UPWARD, LadderLaw, _check_side
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

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# A step's deviate is u = x * 2**-53, with x the top 53 bits of its hash.
_X_BITS = 53
# The guide table splits x by its top 12 bits (Chen & Asau's guide table).
_GUIDE_BITS = 12
# Walks times steps drawn in one block of sample_ladder, and the most walks
# run at once. Each element holds about 40 bytes of temporaries (hash,
# bucket, position, flags), so a block's temporaries stay near 1.3 MB.
_BLOCK_ELEMENTS = 1 << 15


def _check_int(name: str, value, low: int, high: int | None = None) -> int:
    """value as a Python int in [low, high), else DomainError."""
    if not isinstance(value, bool):
        try:
            k = operator.index(value)
        except TypeError:
            pass
        else:
            if k >= low and (high is None or k < high):
                return k
    bounds = "[%d, %s)" % (low, "inf" if high is None else "%d" % high)
    raise DomainError("%s must be an integer in %s, got %r" % (name, bounds, value))


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, applied in place to a uint64 array it returns."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _sample_keys(seed: int, samples: np.ndarray) -> np.ndarray:
    """Stream key of each uint64 sample index, mixed once per sample."""
    return _mix64(np.uint64(seed) + _GOLD * (samples + np.uint64(1)))


def _step_bits(keys: np.ndarray, first: int, count: int) -> np.ndarray:
    """Hash of steps first .. first + count - 1 for each key, steps x keys.

    The step key is GOLD * step modulo 2**64; array products wrap silently.
    """
    steps = np.arange(first, first + count, dtype=np.uint64)
    return _mix64((_GOLD * steps)[:, None] + keys)


def _prefix_sum(a: np.ndarray) -> None:
    """Cumulative sum down axis 0, in place, in log2(rows) whole-row passes.

    Each pass relies on numpy computing an out= that overlaps its input as
    if the input had been copied first.
    """
    shift = 1
    while shift < a.shape[0]:
        np.add(a[shift:], a[:-shift], out=a[shift:])
        shift *= 2


def _step_tables(mu: LatticeDist):
    if not mu.is_proper():
        raise DomainError("step distribution must be proper")
    values = mu.indices()
    cdf = np.cumsum(mu.weights)
    cdf[-1] = 1.0
    return values, cdf


class _StepLookup:
    """Exact integer form of ``values[searchsorted(cdf, x * 2**-53, "right")]``.

    With integer thresholds thr_j = ceil(cdf[j] * 2**53), cdf[j] <= x * 2**-53
    holds exactly when thr_j <= x, so the index is the number of thresholds
    at or below x. Thresholds are clipped at 2**53, above every x: a cdf
    that passes 1.0 before its last entry is forced to 1.0 (a law proper
    within MASS_TOL) then still gives a sorted table with the same counts.
    Each bucket of the guide table holds the index at its lowest x; only
    buckets with a threshold inside them need compares, at most ``gap`` each.
    ``moves`` reads step values from the guide table directly, and those
    loose buckets hold ``loose_mark``, a value no step takes: the window is
    far narrower than int64, so it cannot hold values[0] - 1 even wrapped.
    """

    def __init__(self, values: np.ndarray, cdf: np.ndarray):
        top = float(1 << _X_BITS)
        self.values = values
        self.thresholds = np.minimum(np.ceil(cdf * top), top).astype(np.int64)
        width = 1 << (_X_BITS - _GUIDE_BITS)
        starts = np.arange(1 << _GUIDE_BITS, dtype=np.int64) * width
        self.guide = np.searchsorted(self.thresholds, starts, side="right")
        last = np.searchsorted(self.thresholds, starts + (width - 1), side="right")
        self.gap = int((last - self.guide).max())
        self.loose_mark = (values[:1] - 1)[0]
        loose = last > self.guide
        self.guide_moves = np.where(loose, self.loose_mark, values[self.guide])

    def index(self, x: np.ndarray) -> np.ndarray:
        """Step index of each 53-bit integer x (int64)."""
        idx = self.guide[x >> (_X_BITS - _GUIDE_BITS)]
        for _ in range(self.gap):
            idx += x >= self.thresholds[idx]
        return idx

    def moves(self, bits: np.ndarray) -> np.ndarray:
        """Step value of each 64-bit hash (x is its top 53 bits), same shape."""
        moves = self.guide_moves[(bits >> np.uint64(64 - _GUIDE_BITS)).view(np.intp)]
        loose = np.flatnonzero(moves == self.loose_mark)
        if loose.size:
            x = (bits.reshape(-1)[loose] >> np.uint64(64 - _X_BITS)).view(np.int64)
            moves.reshape(-1)[loose] = self.values[self.index(x)]
        return moves


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
    """Reference single-walk sampler: sample ``sample_index`` of
    ``sample_ladder`` with the same seed, drawn one step at a time with a
    float deviate and ``searchsorted``."""
    _check_side(side)
    seed = _check_int("seed", seed, 0, 1 << 64)
    # sample_index + 1 enters the key, so it must not wrap to 0
    sample_index = _check_int("sample_index", sample_index, 0, (1 << 64) - 1)
    max_steps = _check_int("max_steps", max_steps, 1)
    values, cdf = _step_tables(mu)
    key = _sample_keys(seed, np.array([sample_index], dtype=np.uint64))
    position = 0
    for step in range(1, max_steps + 1):
        x = _step_bits(key, step, 1)[0, 0] >> np.uint64(64 - _X_BITS)
        u = float(x) * 2.0**-_X_BITS
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


def sample_ladder(
    mu: LatticeDist,
    side: str,
    n_samples: int,
    max_steps: int = 10_000,
    seed: int = 0,
) -> EmpiricalLadder:
    """Simulate samples 0 .. n_samples - 1 to their first crossing.

    Walk i is exactly ``walk_sample(mu, side, seed, i, max_steps)``. Its
    deviates are keyed by (seed, sample, step), never by position in a
    batch, so how the walks are grouped and blocked below changes the work
    done and not one count.

    Walks run in groups of at most ``_BLOCK_ELEMENTS`` (2**15). A block
    draws b steps for each of the A walks of a group still running, as one
    b x A array. b is 1 for the first step and then the number of steps
    drawn so far (blocks end after steps 1, 3, 7, 15, ...), so a walk that
    crosses early wastes at most about as many draws as it used; b is also
    capped so that A * b <= ``_BLOCK_ELEMENTS``, which bounds a block's
    temporaries near 1.3 MB. Within a block the positions are prefix sums
    of the steps, and each walk's first crossing is its lowest crossing
    row. The (epoch, height) cells of all crossings are tallied once at the
    end.
    """
    _check_side(side)
    n_samples = _check_int("n_samples", n_samples, 1)
    max_steps = _check_int("max_steps", max_steps, 1)
    seed = _check_int("seed", seed, 0, 1 << 64)
    values, cdf = _step_tables(mu)
    lookup = _StepLookup(values, cdf)
    up = side == UPWARD
    # crossing heights: 0 .. top step upward (the first step starts at 0),
    # bottom step .. -1 downward
    low = 0 if up else min(int(values[0]), -1)
    span = (max(int(values[-1]), 0) + 1) if up else -low
    cells = []  # (epoch - 1) * span + (height - low) of each crossing
    censored = 0
    for start in range(0, n_samples, _BLOCK_ELEMENTS):
        stop = min(start + _BLOCK_ELEMENTS, n_samples)
        keys = _sample_keys(seed, np.arange(start, stop, dtype=np.uint64))
        positions = np.zeros(keys.size, dtype=np.int64)
        step = 1
        while keys.size and step <= max_steps:
            width = min(step, max_steps - step + 1, _BLOCK_ELEMENTS // keys.size)
            path = lookup.moves(_step_bits(keys, step, width))
            path[0] += positions
            _prefix_sum(path)
            hit = path >= 0 if up else path < 0
            # row j ranks width - j, so the highest rank hit is the first crossing
            ranks = np.arange(width, 0, -1, dtype=np.int32)[:, None]
            first = (hit * ranks).max(axis=0)
            done = np.flatnonzero(first)
            rows = width - first[done].astype(np.int64)
            cells.append((step - 1 + rows) * span + (path[rows, done] - low))
            alive = first == 0
            keys = keys[alive]
            positions = path[-1, alive]
            step += width
        censored += keys.size
    # unique, not bincount: the codes reach max_steps * span, which for a
    # wide law is far more cells than walks
    found, freq = np.unique(np.concatenate(cells), return_counts=True)
    epochs, heights = np.divmod(found, span)
    counts = {
        (int(n) + 1, int(k) + low): int(c) for n, k, c in zip(epochs, heights, freq)
    }
    return EmpiricalLadder(side, counts, n_samples, censored, max_steps, seed)


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
