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
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SizeLimitError

MASS_TOL = 1e-9
# direct convolution is exact for nonnegative inputs; FFT introduces a
# ~1e-17 noise floor, so it is reserved for windows where direct cost bites
FFT_THRESHOLD = 1 << 14
MAX_WINDOW = 1 << 20

__all__ = [
    "MASS_TOL",
    "FFT_THRESHOLD",
    "MAX_WINDOW",
    "LatticeDist",
    "lattice",
    "delta",
    "zero_measure",
    "convolve",
    "convolve_exact",
    "convolution_power",
    "split_nonneg",
    "restrict_nonneg",
    "eval_transform",
    "cross_correlation_direct",
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
        object.__setattr__(self, "offset", _integer_offset(self.offset))
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
        if self.is_zero or k < self.min_index or k > self.max_index:
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
    does a NaN or infinite weight. The offset must be an integer: a float or
    bool offset raises rather than being truncated. It is checked before
    trimming, which would otherwise shift a bool into an int or drop the
    offset of an all-zero window.
    """
    offset = _integer_offset(offset)
    w = np.array(weights, dtype=float)
    if w.ndim != 1:
        raise DomainError("weights must be a 1-d sequence")
    finite = np.isfinite(w)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError("non-finite weight %r at index %d" % (float(w[i]), i))
    _clamp_negatives(w)
    offset, w = _trim(offset, w)
    return LatticeDist(offset, w.copy())


def delta(k: int = 0) -> LatticeDist:
    """Point mass at k."""
    return LatticeDist(k, np.ones(1))


def zero_measure() -> LatticeDist:
    return LatticeDist(0, np.empty(0))


def _integer_offset(k) -> int:
    if not isinstance(k, bool):
        try:
            return operator.index(k)
        except TypeError:
            pass
    raise DomainError("lattice offset must be an integer, got %r" % (k,))


def _clamp_negatives(w: np.ndarray) -> None:
    """Zero tiny negative weights in place; raise below -1e-10."""
    neg = w < 0.0
    if neg.any():
        worst = float(w[neg].min())
        if worst < -1e-10:
            raise DomainError("negative weight %r" % worst)
        w[neg] = 0.0


def _trim(offset: int, w: np.ndarray) -> tuple[int, np.ndarray]:
    """Canonical (offset, view) of a nonnegative window, (0, empty) if all zero.

    Only exact zeros are trimmed: deep-tail atoms such as 2**-200 are real
    data for exponential-tilt probes and must survive canonicalization.
    """
    if not w.size:
        return 0, w
    if w[0] > 0.0 and w[-1] > 0.0:
        return offset, w
    # argmax finds each end's first nonzero; flatnonzero would list them all
    nonzero = w != 0.0
    lo = int(nonzero.argmax())
    if not nonzero[lo]:
        return 0, w[:0]
    hi = w.size - int(nonzero[::-1].argmax())
    return offset + lo, w[lo:hi]


# -- convolution ---------------------------------------------------------


def _convolve_raw(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolution of two nonempty weight arrays, as a new array.

    Direct summation below FFT_THRESHOLD output length keeps tiny tail
    masses exact; the FFT path above it (numpy's real FFT, padded to a power
    of two) carries a ~1e-17 noise floor, whose tiny negative weights are
    clamped to zero.
    """
    out_len = len(a) + len(b) - 1
    if out_len > MAX_WINDOW:
        raise SizeLimitError(
            "convolution window %d exceeds maximum %d" % (out_len, MAX_WINDOW)
        )
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


def convolve_exact(a: LatticeDist, b: LatticeDist) -> tuple[int, list[Fraction]]:
    """Exact-rational direct convolution, for oracle use in tests.

    Float weights are taken at their exact binary values. Returns the
    untrimmed (offset, coefficient) pair.
    """
    if a.is_zero or b.is_zero:
        return (0, [])
    fa = [Fraction(float(x)) for x in a.weights]
    fb = [Fraction(float(x)) for x in b.weights]
    out = [Fraction(0)] * (len(fa) + len(fb) - 1)
    for i, x in enumerate(fa):
        if x == 0:
            continue
        for j, y in enumerate(fb):
            out[i + j] += x * y
    return (a.offset + b.offset, out)


def convolution_power(mu: LatticeDist, n: int) -> LatticeDist:
    """n-fold convolution power by binary exponentiation; n = 0 gives delta_0."""
    if n < 0:
        raise DomainError("convolution power needs n >= 0")
    result = delta(0)
    base = mu
    k = n
    while k:
        if k & 1:
            result = convolve(result, base)
        k >>= 1
        if k:
            base = convolve(base, base)
    return result


# -- restriction ---------------------------------------------------------


def split_nonneg(mu: LatticeDist) -> tuple[LatticeDist, LatticeDist]:
    """Split into (part on k < 0, part on k >= 0)."""
    if mu.is_zero:
        return zero_measure(), zero_measure()
    cut = -mu.offset  # first index at lattice point 0
    if cut <= 0:
        return zero_measure(), mu
    if cut >= len(mu.weights):
        return mu, zero_measure()
    neg = lattice(mu.offset, mu.weights[:cut])
    pos = lattice(0, mu.weights[cut:])
    return neg, pos


def restrict_nonneg(mu: LatticeDist) -> LatticeDist:
    """Zero out all mass strictly below the origin."""
    return split_nonneg(mu)[1]


# -- the walk split at the origin ------------------------------------------


class _Walk(NamedTuple):
    """Output of ``_half_line_walk``; windows are (offset, weights) pairs."""

    crossings: list[tuple[int, np.ndarray]]  # step n at index n-1, own arrays
    survival: np.ndarray | None  # alive total after 0..horizon steps, if killed
    alive: tuple[int, np.ndarray]  # alive window after the last step


def _half_line_walk(mu: LatticeDist, kill: str | None, horizon: int) -> _Walk:
    """Walk with step law mu from the unit mass at 0, split at the origin.

    Each step convolves the alive window with mu and splits the result into
    its parts on k < 0 and k >= 0. ``kill="nonneg"`` removes the part on
    k >= 0 (first weak ascent), ``kill="neg"`` the part on k < 0 (first
    strict descent), and the removed part is the step's crossing. With
    ``kill=None`` nothing is removed and the crossing is the part on k >= 0,
    the restricted power r_n. Windows are trimmed exactly as ``convolve``
    and ``split_nonneg`` trim them, so each array holds the same bytes as
    the LatticeDist that loop of public calls would build.
    """
    mu_offset, mu_w = mu.offset, mu.weights
    offset, alive = 0, np.ones(1)
    survival = np.concatenate(([1.0], np.zeros(horizon))) if kill else None
    crossings: list[tuple[int, np.ndarray]] = []
    for n in range(horizon):
        if not (alive.size and mu_w.size):
            offset, alive = 0, np.empty(0)
            crossings.extend([(0, alive)] * (horizon - n))
            break
        offset, stepped = _trim(offset + mu_offset, _convolve_raw(alive, mu_w))
        cut = min(max(-offset, 0), stepped.size)  # index of lattice point 0
        neg = _trim(offset, stepped[:cut])
        nonneg = _trim(offset + cut, stepped[cut:])
        if kill == "nonneg":
            cross, (offset, alive) = nonneg, neg
        elif kill == "neg":
            cross, (offset, alive) = neg, nonneg
        else:
            cross, alive = nonneg, stepped
        crossings.append((cross[0], cross[1].copy()))
        if kill:
            survival[n + 1] = alive.sum()
    return _Walk(crossings, survival, (offset, alive))


# -- transforms ----------------------------------------------------------


def eval_transform(mu: LatticeDist, base: complex) -> complex:
    """Evaluate sum_k mu(k) base^k, which is 0j for the zero measure.

    base = e^{it} gives the characteristic function at t, and
    base = e^{lambda} the moment generating function at lambda.
    """
    if mu.is_zero:
        return 0j
    powers = np.power(complex(base), mu.indices().astype(float))
    return complex(np.dot(mu.weights, powers))


# -- half-line cross-correlation ------------------------------------------


def cross_correlation_direct(mu: LatticeDist, n: int) -> float:
    """sum_{k <= 0} mu(n - k) mu(k), computed by direct summation.

    The reference for the half-line identity that
    ``reconstruct.correlation_lhs_from_data`` evaluates from r1 and r2.
    """
    if n < 1:
        raise DomainError("cross-correlation is defined for n >= 1")
    if mu.is_zero:
        return 0.0
    lo = max(mu.min_index, n - mu.max_index)
    hi = min(0, mu.max_index, n - mu.min_index)
    if lo > hi:
        return 0.0
    k = np.arange(lo, hi + 1)
    return float(np.dot(mu.weights[k - mu.offset], mu.weights[(n - k) - mu.offset]))


# -- distances -----------------------------------------------------------


def _aligned(a: LatticeDist, b: LatticeDist) -> tuple[np.ndarray, np.ndarray]:
    if a.is_zero and b.is_zero:
        return np.zeros(1), np.zeros(1)
    los = [d.min_index for d in (a, b) if not d.is_zero]
    his = [d.max_index for d in (a, b) if not d.is_zero]
    lo, hi = min(los), max(his)
    va = np.zeros(hi - lo + 1)
    vb = np.zeros(hi - lo + 1)
    if not a.is_zero:
        va[a.min_index - lo : a.max_index - lo + 1] = a.weights
    if not b.is_zero:
        vb[b.min_index - lo : b.max_index - lo + 1] = b.weights
    return va, vb


def tv_distance(a: LatticeDist, b: LatticeDist) -> float:
    """Total-variation distance (half the L1 difference)."""
    va, vb = _aligned(a, b)
    return 0.5 * float(np.abs(va - vb).sum())


def sup_distance(a: LatticeDist, b: LatticeDist) -> float:
    va, vb = _aligned(a, b)
    return float(np.abs(va - vb).max())
