"""Finite signed-support measures on the integer lattice and their arithmetic.

The central type is :class:`LatticeDist`, a nonnegative measure carried by a
finite integer window. Distributions may be defective on purpose: killed
walks, restricted convolution powers and truncated tails all produce total
mass below one, and nothing here ever renormalizes silently.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SizeLimitError

MASS_TOL = 1e-9
# direct convolution keeps every atom to within a few ulps; FFT adds a
# ~1e-17 absolute noise floor, which turns atoms below it into noise or
# zeros, so it is reserved for windows where direct cost bites (a walk with
# span d > 1 counts its sublattice points, see _half_line_walk)
FFT_THRESHOLD = 1 << 14
MAX_WINDOW = 1 << 20
# entries of a walk's crossing table (horizon rows times its height
# columns): 512 MiB of float64
MAX_TABLE = 1 << 26

__all__ = [
    "MASS_TOL",
    "FFT_THRESHOLD",
    "MAX_WINDOW",
    "MAX_TABLE",
    "LatticeDist",
    "lattice",
    "delta",
    "zero_measure",
    "convolve",
    "split_nonneg",
    "tv_distance",
    "sup_distance",
]


@dataclass(frozen=True, eq=False)
class LatticeDist:
    """Nonnegative masses on a finite integer window.

    ``weights[i]`` is the mass at lattice point ``offset + i``. Windows are
    canonical: the first and last weight are nonzero unless the measure is
    identically zero (empty ``weights``, ``offset`` 0). Mass a generator
    cut off is not carried: it shows as ``1 - total``. The offset must be
    an integer: a float or bool offset raises, and a numpy integer is stored
    as ``int``.
    """

    offset: int
    weights: np.ndarray
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "offset", _check_int("offset", self.offset, None))
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise DomainError("weights must be a 1-d array")
        if w.size and (w[0] == 0.0 or w[-1] == 0.0):
            raise DomainError("window not canonical: zero edge weight")
        if w.size and float(w.min()) < 0.0:
            raise DomainError("negative weight %r" % float(w.min()))
        total = float(w.sum())
        if not math.isfinite(total):
            raise DomainError("non-finite weights (total %r)" % total)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "total", total)

    # -- basic accessors -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.weights.size == 0

    @property
    def min_index(self) -> int:
        return self.offset

    @property
    def max_index(self) -> int:
        return self.offset + len(self.weights) - 1

    def indices(self) -> np.ndarray:
        return self.offset + np.arange(len(self.weights))

    def mass(self, k: int) -> float:
        if k < self.min_index or k > self.max_index:
            return 0.0
        return float(self.weights[k - self.offset])

    def is_proper(self) -> bool:
        return abs(self.total - 1.0) <= MASS_TOL

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "offset": int(self.offset),
            "weights": [float(w) for w in self.weights],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LatticeDist":
        try:
            offset = doc["offset"]
            weights = doc["weights"]
        except (KeyError, TypeError) as exc:
            raise DomainError("distribution document needs offset and weights") from exc
        return lattice(offset, weights)

    def __repr__(self) -> str:
        if self.is_zero:
            return "LatticeDist(zero)"
        return "LatticeDist([%d, %d], total=%.6g)" % (
            self.min_index,
            self.max_index,
            self.total,
        )


def lattice(offset: int, weights) -> LatticeDist:
    """Build a canonical LatticeDist, trimming exact-zero edge weights.

    Any positive mass however small stays in the window, and interior zeros
    are always preserved. Tiny negative weights from floating-point
    convolution are clamped to zero, anything more negative raises, and so
    does a NaN or infinite weight, or one that is not a number. The offset
    must be an integer: a float or bool offset raises rather than being
    truncated. It is checked before trimming, which would otherwise shift a
    bool into an int or drop the offset of an all-zero window.
    """
    offset = _check_int("offset", offset, None)
    w = _finite_vector("weights", weights)
    _clamp_negatives(w)
    offset, w = _trim(offset, w)
    return LatticeDist(offset, w.copy())


def delta(k: int = 0) -> LatticeDist:
    """Point mass at k."""
    return LatticeDist(k, np.ones(1))


def zero_measure() -> LatticeDist:
    return LatticeDist(0, np.empty(0))


def _check_window(length: int) -> None:
    """SizeLimitError for a window of more than MAX_WINDOW entries, raised
    before it is allocated."""
    if length > MAX_WINDOW:
        raise SizeLimitError(
            "window of %d entries exceeds maximum %d" % (length, MAX_WINDOW)
        )


def _zeroed_table(rows: int, cols: int) -> np.ndarray:
    """A zeroed (rows, cols) walk table; SizeLimitError for one of more than
    MAX_TABLE entries, raised before it is allocated."""
    if rows * cols > MAX_TABLE:
        raise SizeLimitError(
            "table of %d rows and %d columns exceeds maximum %d entries"
            % (rows, cols, MAX_TABLE)
        )
    return np.zeros((rows, cols))


def _finite_vector(name: str, values, dtype=float) -> np.ndarray:
    """values as a new 1-d array of finite numbers of dtype, else DomainError."""
    try:
        v = np.array(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise DomainError("%s must be numbers: %s" % (name, exc)) from exc
    if v.ndim != 1:
        raise DomainError("%s must be a 1-d sequence" % name)
    finite = np.isfinite(v)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError("non-finite %s entry %r at index %d" % (name, v[i].item(), i))
    return v


def _check_int(name: str, value, low: int | None, high: int | None = None) -> int:
    """value as a Python int in [low, high), else DomainError; a None bound
    is no bound."""
    if not isinstance(value, bool):
        try:
            k = operator.index(value)
        except TypeError:
            pass
        else:
            if (low is None or k >= low) and (high is None or k < high):
                return k
    bounds = "%s, %s)" % (
        "(-inf" if low is None else "[%d" % low,
        "inf" if high is None else "%d" % high,
    )
    raise DomainError("%s must be an integer in %s, got %r" % (name, bounds, value))


def _clamp_negatives(w: np.ndarray) -> None:
    """Zero tiny negative weights in place; raise below -1e-10."""
    neg = w < 0.0
    if neg.any():
        worst = float(w[neg].min())
        if worst < -1e-10:
            raise DomainError("negative weight %r" % worst)
        w[neg] = 0.0


_PEEL = 4


def _trim(offset: int, w: np.ndarray) -> tuple[int, np.ndarray]:
    """Canonical (offset, view) of a nonnegative window, (0, empty) if all zero.

    Only exact zeros are trimmed: deep-tail atoms such as 2**-200 are real
    data for exponential-tilt probes, and trimming keeps them. Atoms an FFT
    convolution has already turned into noise are another matter (see
    ``_convolve_raw``).
    """
    # walk windows carry a few edge zeros at most: peel up to _PEEL of them
    # per end as scalars, and make a full pass only when more may follow
    size = w.size
    lo, hi = 0, size
    stop = min(size, _PEEL)
    while lo < stop and w[lo] == 0.0:
        lo += 1
    if lo == size:
        return 0, w[:0]
    stop = max(lo, size - _PEEL)
    while hi > stop and w[hi - 1] == 0.0:
        hi -= 1
    if lo == _PEEL or hi == size - _PEEL:
        # argmax finds each end's first nonzero; flatnonzero would list them all
        nonzero = w != 0.0
        lo = int(nonzero.argmax())
        if not nonzero[lo]:
            return 0, w[:0]
        hi = size - int(nonzero[::-1].argmax())
    return offset + lo, w[lo:hi]


# -- convolution ---------------------------------------------------------


def _convolve_raw(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolution of two nonempty weight arrays, as a new array.

    Direct summation below FFT_THRESHOLD output length keeps tiny tail
    masses to within a few ulps; the FFT path above it (numpy's real FFT,
    padded to a power of two) carries a ~1e-17 absolute noise floor. Atoms
    below it do not survive: they come out as noise, and those it makes
    negative are clamped to zero. Against the direct path,
    ``truncated_data(mu, 16)`` of a law with one atom at -1 and 1,201
    random ones on 0..1200 zeroes 525, 817 and 894 atoms of r_14..r_16,
    the powers whose windows take the FFT. A walk with span d > 1 reaches
    this path only once its sublattice window does (see
    ``_half_line_walk``).
    """
    out_len = len(a) + len(b) - 1
    _check_window(out_len)
    # singleton factors multiply exactly; keeps point-mass convolution free
    # of FFT noise inside support gaps
    if len(a) == 1:
        return a[0] * b
    if len(b) == 1:
        return b[0] * a
    if out_len < FFT_THRESHOLD:
        return np.convolve(a, b)
    n = 1 << (out_len - 1).bit_length()
    w = np.fft.irfft(np.fft.rfft(a, n) * np.fft.rfft(b, n), n)[:out_len]
    _clamp_negatives(w)
    return w


def convolve(a: LatticeDist, b: LatticeDist) -> LatticeDist:
    """Convolution of two lattice measures (see ``_convolve_raw`` for the paths)."""
    if a.is_zero or b.is_zero:
        return zero_measure()
    return lattice(a.offset + b.offset, _convolve_raw(a.weights, b.weights))


# -- restriction ---------------------------------------------------------


def split_nonneg(mu: LatticeDist) -> tuple[LatticeDist, LatticeDist]:
    """Split into (part on k < 0, part on k >= 0)."""
    cut = -mu.offset  # first index at lattice point 0
    if cut <= 0:
        return zero_measure(), mu
    if cut >= len(mu.weights):
        return mu, zero_measure()
    neg = lattice(mu.offset, mu.weights[:cut])
    pos = lattice(0, mu.weights[cut:])
    return neg, pos


# -- the walk split at the origin ------------------------------------------


class _Walk(NamedTuple):
    """Output of ``_half_line_walk``.

    ``table[n-1, j]`` is the crossing mass of step n at height ``base + j``:
    row n-1 is step n's crossing, zero at every height step n cannot reach.
    ``base`` is 0 for r_n and ascents and at most -1 for descents, also
    for a step law with no negative atom. ``lo`` and ``hi`` bound the
    heights that carry any (``lo == hi == base`` if none), found once after
    the last step. ``tail`` is the killed walk's P(tau > horizon): the
    total of its final alive window plus the mass cut from it on the way,
    carried to the horizon. It is None for the unkilled walk.
    """

    table: np.ndarray
    base: int
    lo: int
    hi: int
    tail: float | None


def _half_line_walk(mu: LatticeDist, kill: str | None, horizon: int) -> _Walk:
    """Walk with step law mu from the unit mass at 0, split at the origin.

    Each step convolves the alive window with mu and splits the result into
    its parts on k < 0 and k >= 0. ``kill="nonneg"`` removes the part on
    k >= 0 (first weak ascent), ``kill="neg"`` the part on k < 0 (first
    strict descent), and the removed part is the step's crossing. With
    ``kill=None`` nothing is removed and the crossing is the part on k >= 0,
    the restricted power r_n.

    The walk is stepped on its sublattice. With lo = mu.min_index and the
    span d the gcd of the offsets of mu's nonzero atoms from lo (1 for a
    point mass), S_n lies on n lo + d Z (Spitzer, *Principles of Random
    Walk*, section 1), so the walk steps T_n = (S_n - n lo) / d with the
    step law ``mu.weights[::d]`` and never convolves the zeros between
    atoms. The origin moves: after step n, S >= 0 is T >= ceil(-n lo / d).
    Step n's crossing lands on every d-th height, so it is written into the
    height-indexed table with stride d. For d = 1 this is the walk on Z.

    Each crossing row holds the bytes of the LatticeDist that a loop of
    ``convolve`` and ``split_nonneg`` calls on the full window would build,
    wherever both take the direct path and the dot products behind
    ``np.correlate`` add their terms one at a time in index order, as
    OpenBLAS 0.3 on x86-64 does for fewer than 12 terms (so for laws of at
    most 11 entries): a sublattice entry is the same dot product in the
    same order without its exact-zero terms, and adding an exact-zero
    product to a nonnegative sum changes no bit. The entries of a longer
    span-d law move in their last bits, since the dot products over its
    full window group their terms in vector lanes. A span-d law takes the
    FFT path only once its sublattice window passes ``FFT_THRESHOLD``,
    where its full window would have much sooner.

    Mass that cannot cross before the horizon is not stepped. Before step
    n+1, with k = horizon - n steps left, a point below -k * top (for
    ``kill=None`` and ``"nonneg"``, top = max(mu.max_index, 0)) or above
    k * b (for ``"neg"``, b = max(-mu.min_index, 0)) cannot reach the other
    side of the origin by the horizon, so the alive window is cut there:
    below T = ceil((-k top - n lo) / d), or above T = floor((k b - n lo) /
    d) for descents. Every later crossing is a sum over points inside the
    cut, so the direct path computes it from the same products in the same
    order, provided ``np.correlate`` keeps the orientation it has on the
    uncut window (the alive window as the longer factor): the cut keeps at
    least as many entries as the sublattice step law has, a margin beyond
    the bound. A window the cut keeps at or below ``FFT_THRESHOLD`` less
    that many entries takes the direct path where the uncut one would have
    taken the FFT, and so loses its ~1e-17 noise floor. The mass cut from a
    killed walk is never killed, so it reaches the horizon as its total
    times ``mu.total`` per step left, a factor below one for a defective
    mu. ``tail`` adds it, and so differs from the uncut walk's alive total
    in rounding only. An exact-zero edge the cut leaves makes a zero edge
    of the next stepped window, which is trimmed there.

    For small step laws the per-step calls, not the arithmetic, set the
    cost. So a step makes one convolution (on the direct path,
    ``np.convolve``'s own call: a correlation with the shorter factor
    reversed), finds its cut and origin with one floor division each, runs
    ``_trim`` only where an edge weight of the stepped or alive window is
    not positive, and writes its crossing into the zeroed table as an
    untrimmed slice: the exact-zero edges ``split_nonneg`` would trim land
    on zeros. ``[lo, hi)`` is found once, after the last step. The r_n
    table widens on demand, and a walk whose r_n would need more than
    ``MAX_WINDOW`` height columns stops with SizeLimitError at that step.
    So does a walk, in any kill mode, whose table of ``horizon`` rows would
    hold more than ``MAX_TABLE`` entries: before its first allocation, or
    at the step that would widen it past that.
    """
    if mu.is_zero:
        raise DomainError("step distribution must be nonzero")
    mu_offset, mu_total = mu.offset, mu.total
    # the first atom is at index 0, so the gcd of the nonzero indices is the
    # span: 1 at once for a point mass or an atom at index 1
    mu_w = mu.weights
    span = 1
    if mu_w.size > 1 and mu_w[1] == 0.0:
        span = math.gcd(*np.flatnonzero(mu_w).tolist())
        mu_w = mu_w[::span].copy()
    mu_size = mu_w.size
    top = max(mu.max_index, 0)
    # Crossing heights: a weak ascent lands on 0..top, a strict descent on
    # min_index..-1, and r_n on 0..n*top. The descent table starts at -1 or
    # below, so a law with no negative atom has its empty table at -1. The
    # r_n table starts with at most MAX_WINDOW heights and widens on demand:
    # underflow can keep r_n far below n*top, and a walk past MAX_WINDOW must
    # stop with SizeLimitError at that step, not with a huge allocation up
    # front.
    if kill is None:
        base, width = 0, min(horizon * top, MAX_WINDOW // horizon) + 1
    elif kill == "nonneg":
        base, width = 0, top + 1
    else:
        base = min(mu.offset, -1)
        width = -base
    descent = kill == "neg"
    # one step moves a point at most this far towards the crossing side
    reach = max(-mu.offset, 0) if descent else top
    table = _zeroed_table(horizon, width)
    # one past the highest column any crossing was written to
    end = 0
    mu_rev = mu_w[::-1].copy()
    # alive windows longer than this leave the direct path (see _convolve_raw)
    direct_max = FFT_THRESHOLD - mu_size
    # the loop runs once per step: look these up once
    correlate = np.correlate
    # alive[i] is the mass at lattice point pos + span * i
    pos, alive = 0, np.ones(1)
    # mass cut from the killed walk, already carried to the horizon
    carried = 0.0
    for n in range(horizon):
        size = alive.size
        if not size:
            break
        # the cut: alive[keep:] (alive[:drop] unless "neg") cannot cross in
        # the horizon - n steps left; at least mu_size entries stay
        if descent:
            keep = ((horizon - n) * reach - pos) // span + 1
            if keep < mu_size:
                keep = mu_size
            if keep < size:
                cut_mass = float(np.add.reduce(alive[keep:]))
                carried += cut_mass * mu_total ** (horizon - n)
                alive, size = alive[:keep], keep
        else:
            drop = -(((horizon - n) * reach + pos) // span)
            if drop > size - mu_size:
                drop = size - mu_size
            if drop > 0:
                if kill:
                    cut_mass = float(np.add.reduce(alive[:drop]))
                    carried += cut_mass * mu_total ** (horizon - n)
                pos, alive, size = pos + span * drop, alive[drop:], size - drop
        if size == 1 or mu_size == 1 or size > direct_max:
            stepped = _convolve_raw(alive, mu_w)
        elif size >= mu_size:
            stepped = correlate(alive, mu_rev, "full")
        else:
            stepped = correlate(mu_w, alive[::-1], "full")
        pos += mu_offset
        if not (stepped[0] > 0.0 and stepped[-1] > 0.0):
            first, stepped = _trim(0, stepped)
            pos += span * first
        size = stepped.size
        # index of the origin, the first i with pos + span * i >= 0, clipped
        # to the window (without a min() call, which costs more than the
        # comparison once a step)
        cut = -(pos // span)
        cut = 0 if cut <= 0 else cut if cut < size else size
        # stepped's own edges are positive, so only an edge at the cut can be
        # 0: the alive window is trimmed there if it is, the crossing is not
        if descent:
            j, crossing = pos - base, stepped[:cut]
            if cut < size and stepped[cut] > 0.0:
                pos, alive = pos + span * cut, stepped[cut:]
            else:
                first, alive = _trim(cut, stepped[cut:])
                pos += span * first
        else:
            j, crossing = pos - base + span * cut, stepped[cut:]
            if kill is None:
                alive = stepped
            elif cut and stepped[cut - 1] > 0.0:
                alive = stepped[:cut]
            else:
                first, alive = _trim(0, stepped[:cut])
                pos += span * first
        if crossing.size:
            # one past the height column of the crossing's top
            j_end = j + span * (crossing.size - 1) + 1
            if j_end > width:
                if j_end > MAX_WINDOW:
                    raise SizeLimitError(
                        "table of %d columns exceeds maximum %d" % (j_end, MAX_WINDOW)
                    )
                # doubles, within MAX_WINDOW and MAX_TABLE where j_end fits
                cols = min(2 * width, MAX_WINDOW, MAX_TABLE // horizon)
                wider = _zeroed_table(horizon, max(j_end, cols))
                wider[:n, :width] = table[:n]
                table, width = wider, wider.shape[1]
            table[n, j:j_end:span] = crossing
            if j_end > end:
                end = j_end
    # A nonempty crossing keeps one of stepped's positive edges (its top for
    # r_n and ascents, its bottom for descents); its edge at the cut may be
    # an exact zero. So scan in from each end of the written columns, which
    # stops at once on most laws: one pass over the unkilled table would
    # cost more than its last steps.
    lo, hi = 0, end
    while lo < hi and not table[:, lo].any():
        lo += 1
    while hi > lo and not table[:, hi - 1].any():
        hi -= 1
    # the alive total is read at the horizon only, so it is taken once, here
    tail = float(np.add.reduce(alive)) + carried if kill else None
    return _Walk(table, base, base + lo, base + hi, tail)


# -- distances -----------------------------------------------------------


def _aligned(a: LatticeDist, b: LatticeDist) -> tuple[np.ndarray, np.ndarray]:
    if a.is_zero and b.is_zero:
        return np.zeros(1), np.zeros(1)
    los = [d.min_index for d in (a, b) if not d.is_zero]
    his = [d.max_index for d in (a, b) if not d.is_zero]
    lo, hi = min(los), max(his)
    va = np.zeros(hi - lo + 1)
    vb = np.zeros(hi - lo + 1)
    va[a.min_index - lo : a.max_index - lo + 1] = a.weights
    vb[b.min_index - lo : b.max_index - lo + 1] = b.weights
    return va, vb


def tv_distance(a: LatticeDist, b: LatticeDist) -> float:
    """Total-variation distance (half the L1 difference)."""
    va, vb = _aligned(a, b)
    return 0.5 * float(np.abs(va - vb).sum())


def sup_distance(a: LatticeDist, b: LatticeDist) -> float:
    va, vb = _aligned(a, b)
    return float(np.abs(va - vb).max())
