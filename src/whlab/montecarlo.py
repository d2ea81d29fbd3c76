"""Statistical oracle: seeded walk simulation against the exact ladder DP.

Deviates come from a counter-based hash of (seed, sample, step), with F the
splitmix64 finalizer and GOLD = 0x9E3779B97F4A7C15 (Steele, Lea & Flood,
OOPSLA 2014): sample i's key is F(seed + GOLD * (i + 1)), and the deviate
of its step n is u = (F(key + GOLD * n) >> 11) * 2**-53, sums taken modulo
2**64. No deviate depends on which other samples or steps are drawn with
it, so the counts cannot depend on how the sampler groups its work; the
tests check ``sample_ladder`` walk for walk against a one-step-at-a-time
reference on Python ints (tests/reference.py). Steps are drawn by inverse
CDF; the first boundary crossing per the side convention is recorded, with
explicit censoring when max_steps is hit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientSamplesError
from .ladder import UPWARD, LadderLaw, _check_side
from .lattice import LatticeDist, _check_int

__all__ = [
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
# run at once. Each element holds 21 bytes of temporaries (hash and shift
# scratch at 8 each, step or position at 4 as int32, crossing flag at 1),
# 25 with int64 positions, so a block's temporaries stay near 0.7 MB.
_BLOCK_ELEMENTS = 1 << 15


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, applied in place to a uint64 array it returns."""
    return _mix64_finish(_mix64_top(z, np.empty_like(z)))


def _mix64_top(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``_mix64`` without its last round, in place, shifting into scratch.

    The last round, z ^= z >> 31, leaves the top 31 bits as they are, so
    these bits (the guide index among them) are already final; the round is
    finished only where the lower bits are read.
    """
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= _MIX2
    return z


def _mix64_finish(z: np.ndarray) -> np.ndarray:
    """The last round of ``_mix64``, which ``_mix64_top`` leaves out, in place."""
    z ^= z >> np.uint64(31)
    return z


def _sample_keys(seed: int, samples: np.ndarray) -> np.ndarray:
    """Stream key of each uint64 sample index, mixed once per sample."""
    return _mix64(np.uint64(seed) + _GOLD * (samples + np.uint64(1)))


def _step_keys(
    keys: np.ndarray, first: int, count: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Unmixed key of steps first .. first + count - 1 for each key, steps x keys.

    The step key is GOLD * step modulo 2**64; array products wrap silently.
    """
    steps = np.arange(first, first + count, dtype=np.uint64)
    return np.add((_GOLD * steps)[:, None], keys, out=out)


def _prefix_sum(a: np.ndarray) -> None:
    """Cumulative sum down axis 0, in place.

    A block at least 32 times wider than tall adds row after row; any other
    takes log2(rows) whole-row passes, relying on numpy computing an out=
    that overlaps its input as if the input had been copied first. The loop
    pays a call per row, each pass a copy of the block: at 8 x 3,678 int32
    the loop takes half the passes' time, at 1,024 x 32 ten times it.
    """
    rows, cols = a.shape
    if cols >= 32 * rows:
        for j in range(1, rows):
            np.add(a[j], a[j - 1], out=a[j])
        return
    shift = 1
    while shift < rows:
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
    ``moves`` reads step values, as ``dtype``, from a guide table of the
    top _GUIDE_BITS bits of x. Only a bucket with a threshold inside it
    needs ``index``, a search of the thresholds; those loose buckets hold
    ``loose_mark``, values[0] - 1, which no step takes, and the caller
    picks a dtype that holds it.
    """

    def __init__(self, values: np.ndarray, cdf: np.ndarray, dtype):
        top = float(1 << _X_BITS)
        self.values = values.astype(dtype)
        self.thresholds = np.minimum(np.ceil(cdf * top), top).astype(np.int64)
        width = 1 << (_X_BITS - _GUIDE_BITS)
        starts = np.arange(1 << _GUIDE_BITS, dtype=np.int64) * width
        guide = np.searchsorted(self.thresholds, starts, side="right")
        last = np.searchsorted(self.thresholds, starts + (width - 1), side="right")
        self.loose_mark = self.values[0] - 1
        self.guide_moves = np.where(last > guide, self.loose_mark, self.values[guide])

    def index(self, x: np.ndarray) -> np.ndarray:
        """Step index of each 53-bit integer x (int64)."""
        return np.searchsorted(self.thresholds, x, side="right")

    def moves(
        self, top: np.ndarray, scratch: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Step value of each hash that ``_mix64_top`` left in top (x is the
        top 53 bits of the full hash), written to out of the same shape and
        returned; overwrites scratch."""
        np.right_shift(top, np.uint64(64 - _GUIDE_BITS), out=scratch)
        # every index is in range: "wrap" skips the bounds check, and with
        # it the buffered copy that take makes of out under "raise"
        moves = self.guide_moves.take(scratch.view(np.intp), out=out, mode="wrap")
        loose = np.flatnonzero(moves == self.loose_mark)
        if loose.size:
            z = _mix64_finish(top.reshape(-1)[loose])
            x = (z >> np.uint64(64 - _X_BITS)).view(np.int64)
            moves.reshape(-1)[loose] = self.values[self.index(x)]
        return moves


@dataclass(frozen=True, eq=False)
class EmpiricalLadder:
    """Crossing counts per (epoch, height) cell plus censoring accounting."""

    side: str
    counts: dict[tuple[int, int], int]
    n_samples: int
    censored_count: int
    max_steps: int

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

    Step n of walk i is values[searchsorted(cdf, u, "right")], for u the
    deviate of the module docstring and cdf the cumulative weights with its
    last entry set to 1.0; tests/reference.py draws the same walks one step
    at a time. The deviates are keyed by (seed, sample, step), never by
    position in a batch, so how the walks are grouped and blocked below
    changes the work done and not one count.

    Walks run in groups of at most ``_BLOCK_ELEMENTS`` (2**15). A block
    draws b steps for each of the A walks of a group still running, as one
    b x A array. b is 1 for the first step and then the number of steps
    drawn so far (blocks end after steps 1, 3, 7, 15, ...), so a walk that
    crosses early wastes at most about as many draws as it used; b is also
    capped so that A * b <= ``_BLOCK_ELEMENTS``. Every block of a group
    reuses the group's buffers (hashes, shift scratch and steps), so its
    temporaries stay near 0.7 MB. The hash stops one round short
    (``_mix64_top``): the guide table reads only bits that round leaves
    alone, and only draws in a loose bucket finish it. Steps and positions
    are int32 unless max_steps times the widest step could pass it. Within
    a block the positions are prefix sums of the steps, and each walk's
    first crossing is its lowest crossing row, looked up only in the
    columns that crossed. The (epoch, height) cells of all crossings are
    tallied once at the end.
    """
    _check_side(side)
    n_samples = _check_int("n_samples", n_samples, 1)
    max_steps = _check_int("max_steps", max_steps, 1)
    seed = _check_int("seed", seed, 0, 1 << 64)
    values, cdf = _step_tables(mu)
    # |position| <= max_steps * reach, and a crossing's height - low and its
    # cell code (epoch - 1) * span + (height - low) stay below bound: int32
    # holds them all when bound fits in it, and int64 must.
    reach = max(-int(values[0]), int(values[-1]), 1)
    bound = (max_steps + 1) * (reach + 1)
    if bound >= 1 << 63:
        raise DomainError(
            "steps as wide as %d over max_steps %d would overflow int64 positions"
            % (reach, max_steps)
        )
    dtype = np.int32 if bound < 1 << 31 else np.int64
    lookup = _StepLookup(values, cdf, dtype)
    up = side == UPWARD
    # crossing heights: 0 .. top step upward (the first step starts at 0),
    # bottom step .. -1 downward
    low = 0 if up else min(int(values[0]), -1)
    span = (max(int(values[-1]), 0) + 1) if up else -low
    # (epoch - 1) * span + (height - low) of each crossing
    cells = [np.zeros(0, dtype=np.int64)]
    censored = 0
    for start in range(0, n_samples, _BLOCK_ELEMENTS):
        stop = min(start + _BLOCK_ELEMENTS, n_samples)
        keys = _sample_keys(seed, np.arange(start, stop, dtype=np.uint64))
        positions = np.zeros(keys.size, dtype=dtype)
        # One set of buffers serves all blocks of the group: arrays made
        # afresh each block let glibc's malloc return their pages and fault
        # them in again, some 40,000 faults in one 4,000-step run of 25,000
        # walks.
        size = min(_BLOCK_ELEMENTS, keys.size * max_steps)
        hashes = np.empty((2, size), dtype=np.uint64)  # step hashes, scratch
        moves = np.empty(size, dtype=dtype)
        step = 1
        while keys.size and step <= max_steps:
            width = min(step, max_steps - step + 1, _BLOCK_ELEMENTS // keys.size)
            shape = (width, keys.size)
            bits, scratch = hashes[:, : width * keys.size].reshape(2, *shape)
            _mix64_top(_step_keys(keys, step, width, out=bits), scratch)
            path = lookup.moves(bits, scratch, moves[: bits.size].reshape(shape))
            path[0] += positions
            _prefix_sum(path)
            hit = path >= 0 if up else path < 0
            crossed = hit.any(axis=0)
            done = np.flatnonzero(crossed)
            if done.size:
                rows = hit[:, done].argmax(axis=0)
                # each crossing's cell code, built in place in rows
                height = path[rows, done]
                rows += step - 1
                rows *= span
                rows += height
                rows -= low
                cells.append(rows)
                alive = ~crossed
                keys = keys[alive]
                positions = path[-1, alive]
            else:
                positions = path[-1].copy()  # the next block overwrites path
            step += width
        censored += keys.size
    del hashes, moves  # the tally needs no block buffer
    # unique, not bincount: the codes reach max_steps * span, which for a
    # wide law is far more cells than walks
    found, freq = np.unique(np.concatenate(cells), return_counts=True)
    epochs, heights = np.divmod(found, span)
    counts = {
        (int(n) + 1, int(k) + low): int(c) for n, k, c in zip(epochs, heights, freq)
    }
    return EmpiricalLadder(side, counts, n_samples, censored, max_steps)


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


def _check_pair(exact: LadderLaw, emp: EmpiricalLadder) -> None:
    """DomainError unless the exact law covers the sampler's side and range."""
    if exact.side != emp.side:
        raise DomainError("sides differ: %s vs %s" % (exact.side, emp.side))
    if exact.horizon != emp.max_steps:
        raise DomainError(
            "exact law horizon %d differs from the sampler's max_steps %d"
            % (exact.horizon, emp.max_steps)
        )


def compare_empirical(exact: LadderLaw, emp: EmpiricalLadder) -> ComparisonReport:
    """Per-cell z-scores of observed counts against exact DP masses.

    Only cells with expected or observed count >= MIN_EXPECTED enter the
    verdict; an observed cell with near-zero exact mass fails outright.
    The exact law must end at the sampler's max_steps: epochs past it were
    never drawn, and epochs short of it would go unscored.
    """
    _check_pair(exact, emp)
    rows, cols = np.nonzero(emp.n_samples * exact.masses >= MIN_EXPECTED)
    keys = set(zip((rows + 1).tolist(), exact.heights[cols].tolist()))
    keys.update(key for key, observed in emp.counts.items() if observed >= MIN_EXPECTED)
    if not keys:
        raise InsufficientSamplesError(
            "no cell reaches the expected-count threshold %g" % MIN_EXPECTED
        )
    cells = []
    for n, k in sorted(keys):
        p = exact.mass(n, k)
        observed = emp.counts.get((n, k), 0)
        z = float(_cell_z(observed, emp.n_samples, p))
        cells.append((n, k, observed, emp.n_samples * p, z))
    max_z = max(abs(c[4]) for c in cells)
    return ComparisonReport(
        max_z=float(max_z),
        passed=bool(max_z <= 4.0),
        n_cells=len(cells),
        cells=tuple(cells),
    )


def censored_z(exact: LadderLaw, emp: EmpiricalLadder) -> float:
    """z-score of the censored fraction against the DP alive mass P(tau > max_steps)."""
    _check_pair(exact, emp)
    return _cell_z(emp.censored_count, emp.n_samples, exact.tail)
