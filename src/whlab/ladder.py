"""Ladder epoch/height laws of lattice walks and the half-plane factorization.

The walk S_n is the partial-sum process of i.i.d. steps with law mu. Two
first passages are tracked, with deliberately asymmetric boundaries:

* upward:   tau+ = inf{n >= 1 : S_n >= 0}  (weak ascending)
* downward: tau- = inf{n >= 1 : S_n < 0}   (strict descending)

Both are realized by one killed-walk dynamic program: convolve the
surviving sub-law with mu, move the crossing part into the ladder table,
keep the remainder alive. The joint transform of (tau, S_tau) truncated at
a horizon carries a certified geometric tail bound, and the same transform
is reproducible from half-line data alone through the log-series of the
restricted powers, which is the basis of everything in `reconstruct`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import logsumexp

from .data import TruncatedData, packed_restricted
from .errors import DomainError
from .lattice import LatticeDist, _half_line_walk, eval_transform

UPWARD = "upward"
DOWNWARD = "downward"

__all__ = [
    "UPWARD",
    "DOWNWARD",
    "LadderLaw",
    "ladder_law",
    "chi_eval_grid",
    "spitzer_chi_grid",
    "FactorizationReport",
    "verify_factorization",
    "DecaySequence",
    "neg_prob_sequence",
    "Drift",
    "drift_classify",
    "ExpMomentReport",
    "LambdaProbe",
    "exp_moment_conditions",
    "log_restricted_mgf",
    "default_lambda_grid",
]


def _check_side(side: str) -> str:
    if side not in (UPWARD, DOWNWARD):
        raise DomainError("side must be %r or %r" % (UPWARD, DOWNWARD))
    return side


@dataclass(frozen=True)
class LadderLaw:
    """Joint law of (first passage epoch, overshoot height) up to a horizon.

    ``masses[n-1, j]`` is P(tau = n, S_tau = height_offset + j). Upward laws
    live on heights >= 0, downward laws on heights <= -1. ``survival[n]`` is
    the alive total P(tau > n) for n = 0..horizon.
    """

    side: str
    horizon: int
    height_offset: int
    masses: np.ndarray
    survival: np.ndarray

    def __post_init__(self):
        for name in ("masses", "survival"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

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

    def total(self) -> float:
        """P(tau <= horizon)."""
        return float(self.masses.sum())


def ladder_law(mu: LatticeDist, side: str, horizon: int) -> LadderLaw:
    """Killed-walk dynamic program for the joint first-passage law.

    At every epoch the ladder mass equals the drop of the alive total, an
    identity the tests pin at 1e-14.
    """
    _check_side(side)
    if mu.is_zero:
        raise DomainError("step distribution must be nonzero")
    if horizon < 1:
        raise DomainError("horizon must be at least 1")
    walk = _half_line_walk(mu, "nonneg" if side == UPWARD else "neg", horizon)
    rows = [(n, offset, w) for n, (offset, w) in enumerate(walk.crossings) if w.size]
    if not rows:
        base = 0 if side == UPWARD else -1
        return LadderLaw(side, horizon, base, np.zeros((horizon, 0)), walk.survival)
    lo = min(offset for _, offset, _ in rows)
    hi = max(offset + w.size for _, offset, w in rows)
    table = np.zeros((horizon, hi - lo))
    for n, offset, w in rows:
        table[n, offset - lo : offset - lo + w.size] = w
    return LadderLaw(side, horizon, lo, table, walk.survival)


# -- transform evaluation with certified truncation bounds -----------------


def _check_s(s: complex) -> float:
    mod = abs(s)
    if mod >= 1.0:
        raise DomainError("|s| must be below one, got %r" % s)
    return mod


@dataclass(frozen=True)
class TransformGrid:
    values: np.ndarray  # (len(s_values), len(t_values)) complex
    bounds: np.ndarray  # per s value


def chi_eval_grid(law: LadderLaw, s_values, t_values) -> TransformGrid:
    """E[s^tau e^{i t S_tau}; tau <= horizon] with tail bound |s|^{N+1}/(1-|s|)."""
    s_arr = np.asarray(s_values, dtype=complex)
    t_arr = np.asarray(t_values, dtype=float)
    mods = np.array([_check_s(s) for s in s_arr])
    n_idx = np.arange(1, law.horizon + 1)
    if law.masses.size == 0:
        vals = np.zeros((len(s_arr), len(t_arr)), dtype=complex)
    else:
        phases = np.exp(1j * np.outer(law.heights, t_arr))
        per_epoch = law.masses.astype(complex) @ phases  # (N, T)
        s_pow = s_arr[:, None] ** n_idx[None, :]  # (S, N)
        # row at a time: a batched matmul picks shape-dependent kernels,
        # and values must not depend on how an s sweep is chunked
        vals = np.vstack([row @ per_epoch for row in s_pow])
    bounds = mods ** (law.horizon + 1) / (1.0 - mods)
    return TransformGrid(vals, bounds)


def spitzer_chi_grid(data: TruncatedData, s_values, t_values) -> TransformGrid:
    """Upward joint transform from half-line data via the log-series.

    1 - chi+(s, t) = exp(-sum_{n<=N} (s^n/n) sum_k e^{itk} r_n(k)), with a
    certified bound on the effect of the dropped n > N series terms.
    """
    s_arr = np.asarray(s_values, dtype=complex)
    t_arr = np.asarray(t_values, dtype=float)
    mods = np.array([_check_s(s) for s in s_arr])
    horizon = data.horizon
    packed = packed_restricted(data)
    phases = np.exp(1j * np.outer(np.arange(packed.shape[1]), t_arr))
    a_vals = packed.astype(complex) @ phases  # (N, T)
    n_idx = np.arange(1, horizon + 1)
    s_pow = (s_arr[:, None] ** n_idx[None, :]) / n_idx[None, :]
    series = s_pow @ a_vals
    vals = 1.0 - np.exp(-series)
    tail = mods ** (horizon + 1) / ((horizon + 1) * (1.0 - mods))
    bounds = tail * np.exp(tail) / (1.0 - mods)
    return TransformGrid(vals, bounds)


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
    bounds: np.ndarray  # per s value

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

    The certified bound 3 |s|^{N+1} / (1 - |s|) dominates the effect of the
    two truncated tails on the product, so residuals above bound plus float
    noise indicate a real defect.
    """
    s_arr = np.asarray(s_values, dtype=complex)
    t_arr = np.asarray(t_values, dtype=float)
    up = ladder_law(mu, UPWARD, horizon)
    down = ladder_law(mu, DOWNWARD, horizon)
    plus = chi_eval_grid(up, s_arr, t_arr).values
    minus = chi_eval_grid(down, s_arr, t_arr).values
    phi = np.array([eval_transform(mu, np.exp(1j * t)) for t in t_arr])
    lhs = 1.0 - s_arr[:, None] * phi[None, :]
    rhs = (1.0 - minus) * (1.0 - plus)
    residuals = np.abs(lhs - rhs)
    mods = np.abs(s_arr)
    bounds = 3.0 * mods ** (horizon + 1) / (1.0 - mods)
    return FactorizationReport(horizon, s_arr, t_arr, plus, minus, residuals, bounds)


# -- negative-probability decay --------------------------------------------


@dataclass(frozen=True)
class DecaySequence:
    """P(S_n < 0) for n = 1..N together with a geometric-decay fit.

    ``fitted_alpha`` is None when no geometric fit is accepted, +inf when
    the sequence is identically zero.
    """

    values: np.ndarray
    fitted_alpha: float | None
    r_squared: float | None


# P(S_n < 0) below this is float-cancellation noise (computed as 1 - total).
_DECAY_FLOOR = 1e-12
_ALPHA_MIN = 1e-3
_R2_MIN = 0.999


def neg_prob_sequence(data: TruncatedData) -> DecaySequence:
    values = np.array([max(0.0, 1.0 - r.total) for r in data.restricted])
    if values.max() <= 0.0:
        return DecaySequence(values, float("inf"), None)
    eligible = np.nonzero(values >= _DECAY_FLOOR)[0]
    if eligible.size < 8:
        return DecaySequence(values, None, None)
    window = eligible[eligible.size // 2 :]
    n = window + 1.0
    logv = np.log(values[window])
    slope, intercept = np.polyfit(n, logv, 1)
    fitted = slope * n + intercept
    ss_res = float(np.sum((logv - fitted) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    if ss_tot <= 1e-20:
        return DecaySequence(values, None, None)
    r2 = 1.0 - ss_res / ss_tot
    alpha = -float(slope)
    if alpha >= _ALPHA_MIN and r2 >= _R2_MIN:
        return DecaySequence(values, alpha, r2)
    return DecaySequence(values, None, r2)


# -- drift classification ---------------------------------------------------


class Drift(Enum):
    PLUS = "drifts_plus"
    MINUS = "drifts_minus"
    OSCILLATES = "oscillates"
    UNDECIDED = "undecided"


def drift_classify(data: TruncatedData) -> Drift:
    """Classify the walk's long-run behaviour from half-line data alone.

    The verdict is a finite-horizon heuristic built on the decay of
    P(S_n < 0), and UNDECIDED is an honest outcome.
    """
    decay = neg_prob_sequence(data)
    values = decay.values
    if values.max() <= 0.0:
        return Drift.PLUS
    if decay.fitted_alpha is not None:
        return Drift.PLUS
    tail = values[-max(5, len(values) // 4) :]
    tail_mean = float(tail.mean())
    half = values[len(values) // 2]
    if tail_mean >= 0.9 and tail[-1] >= half - 1e-9:
        return Drift.MINUS
    if tail_mean < 0.02 and values[-1] <= half:
        return Drift.PLUS
    if float(tail.max() - tail.min()) <= 0.02 and 0.02 < tail_mean < 0.9:
        return Drift.OSCILLATES
    return Drift.UNDECIDED


# -- exponential-moment probes ----------------------------------------------


@dataclass(frozen=True)
class LambdaProbe:
    lam: float
    growth: float | None  # stabilized limit of a_{n+1}/a_n, None if unstable
    stabilized: bool
    certified: bool  # growth > 1 certifies an exponential moment above one


@dataclass(frozen=True)
class ExpMomentReport:
    """Evidence for the two transform-side recovery conditions.

    condition_b is True when some probed lambda certifies a finite moment
    generating value above one (the growth of E[e^{lambda S_n}; S_n >= 0]
    is a lower bound for it), False when every probe stabilized without
    certifying, None when some probe did not stabilize.
    """

    probes: tuple[LambdaProbe, ...]
    condition_b: bool | None
    b_witness: float | None
    lambda_cap: float


# e^{lambda * k} above this cap is dominated by the top of the data window,
# where a truncated heavy tail fabricates spurious exponential moments.
_MGF_ARG_CAP = 1e3


def log_restricted_mgf(data: TruncatedData, lambdas, n: int) -> np.ndarray:
    """log E[e^{lam S_n}; S_n >= 0] for each lam, -inf when r_n is zero."""
    lambdas = np.asarray(lambdas, dtype=float)
    r = data.restricted_power(n)
    if r.is_zero:
        return np.full(lambdas.shape, -np.inf)
    with np.errstate(divide="ignore"):
        logw = np.log(r.weights)
    return logsumexp(np.multiply.outer(lambdas, r.indices()) + logw, axis=1)


def default_lambda_grid(data: TruncatedData) -> np.ndarray:
    r1 = data.restricted_power(1)
    top = max(1, r1.max_index if not r1.is_zero else 1)
    lam_max = np.log(_MGF_ARG_CAP) / top
    return np.geomspace(lam_max / 50.0, lam_max, 12)


def exp_moment_conditions(data: TruncatedData) -> ExpMomentReport:
    grid = default_lambda_grid(data)
    cap = float(grid.max())
    # a nonzero power has a finite log-MGF at every lambda
    nonzero = [n for n, r in enumerate(data.restricted, start=1) if not r.is_zero]
    if len(nonzero) < 6:
        probes = tuple(LambdaProbe(float(lam), None, False, False) for lam in grid)
        return ExpMomentReport(probes, None, None, cap)
    logs = np.array([log_restricted_mgf(data, grid, n) for n in nonzero[-5:]])
    ratios = np.exp(np.diff(logs, axis=0))  # (4, len(grid))
    probes = []
    witness = None
    any_unstable = False
    for lam, last in zip(grid, ratios.T):
        spread = float(last.max() - last.min())
        growth = float(last[-1])
        stabilized = spread <= 1e-8 * max(1.0, abs(growth))
        certified = stabilized and growth > 1.0 + 1e-9
        if certified and witness is None:
            witness = float(lam)
        if not stabilized:
            any_unstable = True
        probes.append(
            LambdaProbe(float(lam), growth if stabilized else None, stabilized, certified)
        )
    if witness is not None:
        condition_b = True
    elif any_unstable:
        condition_b = None
    else:
        condition_b = False
    return ExpMomentReport(tuple(probes), condition_b, witness, cap)
