"""Ladder epoch/height laws of lattice walks and the half-plane factorization.

The walk S_n is the partial-sum process of i.i.d. steps with law mu. Two
first passages are tracked, with deliberately asymmetric boundaries:

* upward:   tau+ = inf{n >= 1 : S_n >= 0}  (weak ascending)
* downward: tau- = inf{n >= 1 : S_n < 0}   (strict descending)

Both are realized by one killed-walk dynamic program: convolve the
surviving sub-law with mu, move the crossing part into the ladder table,
keep the remainder alive. The joint transform of (tau, S_tau) truncated at
a horizon N carries a certified tail bound read off the DP's ``tail``, the
alive total P(tau > N) after the last step. The upward transform is also
reproducible from half-line data alone through the log-series of the
restricted powers (`spitzer_chi_grid`), which cross-checks the DP; no
detector in `reconstruct` reads it. Both grids, and the factorization
check built on them, also return a first-order a-priori bound on their own
floating-point error, derived from the horizon, the widths, the largest
|height|, max|t| and |s|.

The exponential-moment probes (`log_restricted_mgf`,
`exp_moment_conditions`) read half-line data only and return the one
certificate `recover_exponential` needs: a witness lambda, or None, and
the probe cap. One rule decides where the growth of the restricted
moment generating values has stabilized, for the certificate and for
the exponential fit alike: the four ratios over the last five nonzero
powers agree within 1e-8 of the last (`_stabilized_growth`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TruncatedData
from .errors import DomainError
from .lattice import (
    LatticeDist,
    _check_int,
    _finite_vector,
    _half_line_walk,
    _zeroed_table,
)

UPWARD = "upward"
DOWNWARD = "downward"

__all__ = [
    "UPWARD",
    "DOWNWARD",
    "LadderLaw",
    "ladder_law",
    "TransformGrid",
    "chi_eval_grid",
    "spitzer_chi_grid",
    "FactorizationReport",
    "verify_factorization",
    "ExpMomentReport",
    "exp_moment_conditions",
    "log_restricted_mgf",
]


def _check_side(side: str) -> str:
    if side not in (UPWARD, DOWNWARD):
        raise DomainError("side must be %r or %r" % (UPWARD, DOWNWARD))
    return side


@dataclass(frozen=True)
class LadderLaw:
    """Joint law of (first passage epoch, overshoot height) up to a horizon.

    ``masses[n-1, j]`` is P(tau = n, S_tau = height_offset + j). Upward laws
    live on heights >= 0, downward laws on heights <= -1. ``tail`` is the
    alive total P(tau > horizon): the mass of the killed walk's last alive
    window (the points of the sublattice mu's atoms reach) plus the mass it
    stopped stepping because that mass could not cross before the horizon,
    carried there at ``mu.total`` per step. The n-step law is
    the first n rows of the N-step law, so ``ladder_law(mu, side, n).tail``
    is P(tau > n), up to rounding: the walk to horizon n stops stepping
    other mass than the walk to N does.
    """

    side: str
    horizon: int
    height_offset: int
    masses: np.ndarray
    tail: float

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float)
        masses.setflags(write=False)
        object.__setattr__(self, "masses", masses)

    @property
    def heights(self) -> np.ndarray:
        return self.height_offset + np.arange(self.masses.shape[1])

    def mass(self, n: int, k: int) -> float:
        if not 1 <= n <= self.horizon:
            return 0.0
        j = k - self.height_offset
        if not 0 <= j < self.masses.shape[1]:
            return 0.0
        return float(self.masses[n - 1, j])


def ladder_law(mu: LatticeDist, side: str, horizon: int) -> LadderLaw:
    """Killed-walk dynamic program for the joint first-passage law.

    At every epoch the ladder mass equals the drop of the alive total once
    the step has kept ``mu.total`` of it, an identity the tests pin at
    1e-14. The walk (``lattice._half_line_walk``) steps only the sublattice
    lo + dZ that mu's atoms span, and does not step mass that can no longer
    cross before the horizon: on its direct path the masses are those of
    the walk that steps every point of every window, up to the grouping of
    long dot products, and the tail differs from that walk's in rounding
    only. A law that never crosses (no atom on that side of the origin)
    takes the same path, to a (horizon, 0) table at height 0 upward and -1
    downward.
    """
    _check_side(side)
    horizon = _check_int("horizon", horizon, 1)
    walk = _half_line_walk(mu, "nonneg" if side == UPWARD else "neg", horizon)
    masses = walk.table[:, walk.lo - walk.base : walk.hi - walk.base]
    return LadderLaw(side, horizon, walk.lo, np.ascontiguousarray(masses), walk.tail)


# -- transform evaluation with certified truncation bounds -----------------


def _grid_args(s_values, t_values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s as complex, t as float, |s|) after the domain checks of a grid:
    1-d sequences of finite numbers, each |s| below one."""
    s_arr = _finite_vector("s values", s_values, complex)
    t_arr = _finite_vector("t values", t_values)
    mods = np.abs(s_arr)
    if not (mods < 1.0).all():
        raise DomainError("|s| must be below one, got %r" % s_arr[mods >= 1.0][0])
    return s_arr, t_arr, mods


def _phases(heights: np.ndarray, t_arr: np.ndarray) -> np.ndarray:
    """e^{i k t} for each height k (rows) and t (columns).

    cos and sin are written into the real and imaginary views of one
    complex array: the values of np.exp(1j * k t), signed zeros included,
    without its complex multiply and complex exp. A table whose bytes pass
    the walk tables' budget is refused before anything is allocated.
    """
    out = _zeroed_table(len(heights), len(t_arr), complex)
    x = np.multiply.outer(heights, t_arr)
    x += 0.0  # 1j * x has imaginary part +0.0 where x is -0.0
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


# First-order a-priori bounds on the floating-point error of what the grids
# return (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
# ch. 2-4), for masses that total at most one. u is the unit roundoff and
# gamma_n = n u / (1 - n u) bounds n roundings; libm's log, exp, cos and sin
# are taken within 2 ulp. numpy forms s^n by repeated squaring below
# n = 100, within (n - 1) sqrt2 gamma_2 <= 3 n u relative, and as
# exp(n log s) from there, within u (5 n |log s| + 8): log s within 4u and
# its product with n within u, per component, and exp, cos, sin and their
# product within 8u. So s^n is within u (5 n |log s| + 3 n + 8) relative,
# with |log s| <= |log |s|| + |arg s|.

_U = 2.0**-53


def _gamma(n):
    return n * _U / (1.0 - n * _U)


def _dot_error(n: int) -> float:
    """Error of a complex dot product of length n over the sum of the
    moduli of its terms: sqrt2 gamma_{n+2} (Higham, section 3.6)."""
    return np.sqrt(2.0) * _gamma(n + 2)


def _phase_error(reach: int, t_arr: np.ndarray) -> float:
    """Error of `_phases` for heights |k| <= reach: the rounded product k t
    is off by u |k t|, and cos and sin by 2 ulp each."""
    return _U * (reach * np.abs(t_arr).max(initial=0.0) + 2.0 * np.sqrt(2.0))


@dataclass(frozen=True)
class TransformGrid:
    values: np.ndarray  # (len(s_values), len(t_values)) complex
    bounds: np.ndarray  # per s value: truncation at the horizon
    roundoff: np.ndarray  # per s value: floating-point error of the values


def chi_eval_grid(law: LadderLaw, s_values, t_values) -> TransformGrid:
    """E[s^tau e^{i t S_tau}; tau <= horizon] with tail bound |s|^{N+1} P(tau > N).

    P(tau > N) is ``law.tail``. The epoch masses are summed over s before
    the height phases are applied, one s row at a time: a batched matmul
    picks shape-dependent kernels, and a value must not depend on how an s
    sweep is chunked.

    ``roundoff`` bounds, to first order, how far each value lies from the
    exact truncated sum over the law's masses, for masses totalling at most
    one. It is about u |s| ((5 |arg s| + 4.5) N + 1.5 W + K max|t|), with u
    the unit roundoff, W the width of the ladder table and K its largest
    |height|, and passes 1e-10 only where the bracket nears 9e5: at
    N = 2e5 for positive s and 4.5e4 for negative s, at W = 6e5, or at
    K max|t| = 9e5.
    """
    s_arr, t_arr, mods = _grid_args(s_values, t_values)
    vals = np.zeros((len(s_arr), len(t_arr)), dtype=complex)
    phases = _phases(law.heights, t_arr)  # (W, T)
    n_idx = np.arange(1, law.horizon + 1)
    for i, row in enumerate(s_arr[:, None] ** n_idx[None, :]):
        vals[i] = (row @ law.masses) @ phases
    bounds = mods ** (law.horizon + 1) * law.tail
    width = law.masses.shape[1]
    reach = max(abs(law.height_offset), abs(law.height_offset + width - 1))
    # the powers' errors weighted by sum_n |s|^n m_n, since n |s|^n |log |s|| <= 1/e
    arg = np.abs(np.angle(s_arr))
    powers = _U * (2.0 + mods * ((5.0 * arg + 3.0) * law.horizon + 8.0))
    sums = _dot_error(law.horizon) + _dot_error(width) + _phase_error(reach, t_arr)
    return TransformGrid(vals, bounds, powers + mods * sums)


def spitzer_chi_grid(data: TruncatedData, s_values, t_values) -> TransformGrid:
    """Upward joint transform from half-line data via the log-series.

    1 - chi+(s, t) = exp(-sum_{n<=N} (s^n/n) sum_k e^{itk} r_n(k)), with a
    certified bound on the effect of the dropped n > N series terms. The
    (N, W) table of restricted powers is summed over n for each s first,
    and only the (S, W) result meets the height phases. The real and the
    imaginary parts of the weights s^n/n are stacked into one real matrix,
    so that the table is read once and as it is, never copied to complex.
    Unlike ``chi_eval_grid``'s, a value here depends on how an s sweep is
    chunked: the stacked matmul picks shape-dependent kernels, and one call
    per s moves most values by an ulp or so (at most about 2e-15).

    ``roundoff`` bounds, to first order, how far each value lies from the
    exact truncated series over the table. It reads nothing from the table:
    rows totalling at most one keep the series' sum of moduli within
    B = -log(1 - |s|) and so |1 - chi+| within e^B = 1/(1 - |s|). It is
    about u B (1.5 N + 1.5 W + W max|t|) / (1 - |s|), so it passes 1e-10 at
    N = 4.6e5 or W max|t| = 6.5e5 for |s| = 0.5, at N = 2.8e4 or
    W max|t| = 3.9e4 for |s| = 0.9, and at N = 1,300 or W max|t| = 1,600
    for |s| = 0.99.
    """
    s_arr, t_arr, mods = _grid_args(s_values, t_values)
    horizon = data.horizon
    table = data.table
    width = table.shape[1]
    phases = _phases(np.arange(width), t_arr)  # (W, T)
    n_idx = np.arange(1, horizon + 1)
    s_pow = (s_arr[:, None] ** n_idx[None, :]) / n_idx[None, :]  # (S, N)
    parts = np.concatenate([s_pow.real, s_pow.imag]) @ table  # (2S, W)
    by_k = parts[: len(s_arr)] + 1j * parts[len(s_arr) :]
    vals = 1.0 - np.exp(-(by_k @ phases))
    tail = mods ** (horizon + 1) / ((horizon + 1) * (1.0 - mods))
    bounds = tail * np.exp(tail) / (1.0 - mods)
    series = -np.log1p(-mods)
    growth = 1.0 / (1.0 - mods)
    # the powers' errors and the division by n (2u) weighted by
    # sum_n |s|^n / n, since x |log x| <= 1 - x
    arg = np.abs(np.angle(s_arr))
    powers = _U * (5.0 + (5.0 * arg + 3.0) * mods * growth + 10.0 * series)
    sums = _dot_error(horizon) + _dot_error(width) + _phase_error(width - 1, t_arr)
    # exp within 8u relative, and 1 - exp(...) one rounding within u (1 + growth)
    roundoff = growth * (powers + series * sums + 9.0 * _U) + _U
    return TransformGrid(vals, bounds, roundoff)


# -- factorization verification -------------------------------------------


@dataclass(frozen=True)
class FactorizationReport:
    """Grid check of 1 - s phi(t) = (1 - chi-)(1 - chi+)."""

    horizon: int
    s_values: np.ndarray
    t_values: np.ndarray
    chi_plus: np.ndarray  # (S, T) complex
    chi_minus: np.ndarray
    residuals: np.ndarray  # (S, T) float
    bounds: np.ndarray  # per s value: truncation at the horizon
    roundoff: np.ndarray  # per s value: floating-point error of the residuals

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max()) if self.residuals.size else 0.0

    @property
    def max_bound(self) -> float:
        return float(self.bounds.max()) if self.bounds.size else 0.0


def verify_factorization(
    mu: LatticeDist, s_values, t_values, horizon: int
) -> FactorizationReport:
    """Evaluate both truncated factors and the identity residual on a grid.

    Each factor is evaluated by ``chi_eval_grid`` (summed over s before
    the height phases). Truncating chi+ and chi- at N moves the product
    (1 - chi-)(1 - chi+) by at most
    (1 + |s|) |s|^{N+1} (P(tau+ > N) + P(tau- > N)), read from the two
    ladder laws' ``tail``, since each factor is at most 1 + |s| in modulus
    and each dropped tail at most |s|^{N+1} P(tau > N); that is ``bounds``.
    ``roundoff`` bounds, to first order, the floating-point error of each
    residual for a step law of total mass at most one: (1 + |s|) times the
    two factors' ``roundoff``, plus phi's and a few roundings of the
    products. A residual above ``bounds + roundoff`` indicates a real
    defect. The roundoff is about four times a factor's, so it passes 1e-10
    at N = 5e4 for positive s and 1.1e4 for negative s, or where the largest
    |step| times max|t| reaches 1.8e5.
    """
    s_arr, t_arr, mods = _grid_args(s_values, t_values)
    up = ladder_law(mu, UPWARD, horizon)
    down = ladder_law(mu, DOWNWARD, horizon)
    plus = chi_eval_grid(up, s_arr, t_arr)
    minus = chi_eval_grid(down, s_arr, t_arr)
    phi = mu.weights @ _phases(mu.indices(), t_arr)
    lhs = 1.0 - s_arr[:, None] * phi[None, :]
    rhs = (1.0 - minus.values) * (1.0 - plus.values)
    residuals = np.abs(lhs - rhs)
    alive = up.tail + down.tail
    bounds = (1.0 + mods) * mods ** (horizon + 1) * alive
    reach = max(abs(mu.min_index), abs(mu.max_index))
    one = 1.0 + mods
    # each 1 - x rounds within u (1 + |s|) and each complex product within
    # sqrt2 gamma_2; lhs - rhs and its modulus within 3u (|lhs| + |rhs|)
    roundoff = (
        one * (plus.roundoff + minus.roundoff)
        + mods * (_dot_error(len(mu.weights)) + _phase_error(reach, t_arr))
        + np.sqrt(2.0) * _gamma(2) * (mods + one**2)
        + _U * (4.0 * one + 5.0 * one**2)
    )
    return FactorizationReport(
        horizon, s_arr, t_arr, plus.values, minus.values, residuals, bounds, roundoff
    )


# -- exponential-moment probes ----------------------------------------------


@dataclass(frozen=True)
class ExpMomentReport:
    """Evidence for the transform-side recovery condition (the paper's case 1).

    ``b_witness`` is the smallest probed lambda whose growth rate of
    E[e^{lambda S_n}; S_n >= 0] stabilized above one, which certifies a
    finite moment generating value above one there (the growth is a lower
    bound for it); None if no probe certifies. ``lambda_cap`` is the
    largest probed lambda.
    """

    b_witness: float | None
    lambda_cap: float


# e^{lambda * k} above this cap is dominated by the top of the data window,
# where a truncated heavy tail fabricates spurious exponential moments.
_MGF_ARG_CAP = 1e3


def log_restricted_mgf(data: TruncatedData, lambdas, n: int) -> np.ndarray:
    """log E[e^{lam S_n}; S_n >= 0] for each lam, -inf when r_n is zero.

    A log-sum-exp over each (lam, k) row that keeps its tied maxima out of
    the sum: log1p(s/m) + log(m) + max, with m the number of tied maxima
    and s the sum of the other terms shifted by the max (Blanchard, Higham
    & Higham, IMA J. Numer. Anal. 41(4), 2021). These are the operations
    of scipy.special.logsumexp, in its order, so the values are its values
    bit for bit; the exponents are formed once, in one array. A row whose
    result is not finite takes log(sum(exp)) instead, as scipy's does.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    r = data.restricted_power(n)
    if r.is_zero:
        return np.full(lambdas.shape, -np.inf)
    with np.errstate(divide="ignore"):
        logw = np.log(r.weights)
    k = r.indices()
    x = np.multiply.outer(lambdas, k)
    x += logw
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = x.max(axis=1, keepdims=True)
        ties = x == top
        m = np.count_nonzero(ties, axis=1)
        np.copyto(x, -np.inf, where=ties)
        x -= top
        np.exp(x, out=x)
        s = x.sum(axis=1)
        out = np.log1p(s / m) + np.log(m) + top[:, 0]
        for i in np.flatnonzero(~np.isfinite(out)):
            out[i] = np.log(np.exp(lambdas[i] * k + logw).sum())
    return out


def _lambda_grid(data: TruncatedData) -> np.ndarray:
    r1 = data.restricted_power(1)
    top = max(1, r1.max_index)
    lam_max = np.log(_MGF_ARG_CAP) / top
    return np.geomspace(lam_max / 50.0, lam_max, 12)


def _stabilized_growth(data: TruncatedData, lambdas: np.ndarray):
    """(growth, stabilized) at each lambda: the one stabilization rule.

    The ratios of successive restricted moment generating values are taken
    over the last five nonzero powers; the growth is the last of the four,
    and a lambda has stabilized when the four spread by at most 1e-8
    relative to max(1, |growth|). Fewer than six nonzero powers stabilize
    nothing, and then the growth is nan throughout.
    """
    # a nonzero power has a finite log-MGF at every lambda
    nonzero = (np.flatnonzero(data.table.max(axis=1) > 0.0) + 1).tolist()
    if len(nonzero) < 6:
        return np.full(lambdas.shape, np.nan), np.zeros(lambdas.shape, dtype=bool)
    logs = np.array([log_restricted_mgf(data, lambdas, n) for n in nonzero[-5:]])
    ratios = np.exp(np.diff(logs, axis=0))  # (4, len(lambdas))
    growth = ratios[-1]
    stabilized = np.ptp(ratios, axis=0) <= 1e-8 * np.maximum(1.0, np.abs(growth))
    return growth, stabilized


def exp_moment_conditions(data: TruncatedData) -> ExpMomentReport:
    """Probe 12 lambdas, geometric up to log(1e3) over the top of r_1.

    A probe certifies when it has stabilized under `_stabilized_growth`'s
    rule (four ratios over the last five nonzero powers within 1e-8 of
    the last, its growth) with growth above one. Fewer than six nonzero
    powers certify nothing.
    """
    grid = _lambda_grid(data)
    cap = float(grid.max())
    growth, stabilized = _stabilized_growth(data, grid)
    certified = np.flatnonzero(stabilized & (growth > 1.0 + 1e-9))
    return ExpMomentReport(float(grid[certified[0]]) if certified.size else None, cap)
