"""Finite exponential-sum fitting by the matrix pencil method.

Sequences of the form g(n) = sum_i w_i c_i^n are identified from a run of
consecutive values. The Hankel matrix of such a sequence has rank equal to
the number of atoms; the rank is read off a singular-value gap and the
nodes c_i are eigenvalues of a shifted pencil of the top right singular
vectors, after which the weights follow from a Vandermonde least-squares
solve. Clean data with well separated nodes is the intended regime; the
residual in the returned fit is the caller's acceptance signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["ExpFit", "pencil_fit"]

# singular values this factor below the top one are treated as noise
SV_GAP = 1e6
MAX_ATOMS = 8


@dataclass(frozen=True)
class ExpFit:
    nodes: np.ndarray
    weights: np.ndarray
    residual: float


def pencil_fit(seq) -> ExpFit:
    """Fit g(n) = sum w_i c_i^n with at most MAX_ATOMS nodes to seq[n] = g(n).

    Nodes with a relative imaginary part above 1e-8 are rejected outright
    since every intended use targets real positive nodes.
    """
    seq = np.asarray(seq, dtype=float)
    n = len(seq)
    if n < 4:
        raise DomainError("need at least 4 sequence values, got %d" % n)
    top = float(np.abs(seq).max())
    if top == 0.0:
        return ExpFit(np.zeros(0), np.zeros(0), 0.0)

    pencil = min(n // 2, MAX_ATOMS + 2)
    rows = n - pencil
    hankel = np.lib.stride_tricks.sliding_window_view(seq, pencil + 1)[:rows]
    u, sv, vh = np.linalg.svd(hankel, full_matrices=False)
    rank = int(np.sum(sv >= sv[0] / SV_GAP))
    rank = min(rank, MAX_ATOMS, pencil)
    if rank == 0:
        return ExpFit(np.zeros(0), np.zeros(0), top)

    v = vh.conj().T[:, :rank]
    shifted = np.linalg.pinv(v[:-1]) @ v[1:]
    nodes = np.linalg.eigvals(shifted)
    keep = np.abs(nodes.imag) <= 1e-8 * np.maximum(1.0, np.abs(nodes))
    nodes = np.unique(nodes[keep].real)
    if nodes.size == 0:
        return ExpFit(np.zeros(0), np.zeros(0), top)

    design = nodes[None, :] ** np.arange(n)[:, None]
    weights, *_ = np.linalg.lstsq(design, seq, rcond=None)
    residual = float(np.abs(design @ weights - seq).max())
    order = np.argsort(nodes)
    return ExpFit(nodes[order], weights[order], residual)
