"""Recovery of a step distribution from its half-line convolution powers.

Every detector, and the dispatcher over them, reads a
:class:`~whlab.data.TruncatedData` and nothing else: the true law never
enters, so a caller that knows it scores a recovery itself (with
``lattice.tv_distance``). Four structural classes are detected and
inverted:

* exponential: a certified moment generating value in (1, infinity) lets
  the ratio of successive restricted moment generating values recover the
  full transform at probe lambdas, after which the negative window is
  fitted by mass-constrained least squares;
* skip_free: the only negative mass sits at -1; the candidate is forced by
  the mass deficit and accepted by exact forward consistency;
* triangular: a gap pattern (positive support starting at a+b, second
  power vanishing through a) makes the one-sided correlation system
  triangular and exactly solvable;
* discrete_cm: a completely monotone positive part is the kernel of a
  nonnegative inversion of the one-sided correlation sequence, accepted
  only at a residual within CONSISTENCY_TOL and full design rank.

The dispatcher walks the ``DETECTORS`` table (name to detector call),
which lists the detectors in precedence order, exact before approximate;
it runs every enabled detector once and the first hit labels the data.
With no hit the report is ``none``: no law, no residuals, only the
detector verdicts. Reported residuals and rank flags are the honesty
layer: a rank-deficient kernel yields a flag, never a fabricated answer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import TruncatedData, truncated_data
from .errors import (
    ClassNotDetected,
    ConditioningError,
    DataInconsistencyError,
    DomainError,
)
from .ladder import _stabilized_growth, exp_moment_conditions, log_restricted_mgf
from .lattice import (
    MASS_TOL,
    LatticeDist,
    _finite_vector,
    convolve,
    lattice,
    split_nonneg,
    zero_measure,
)

CLASS_EXPONENTIAL = "exponential"
CLASS_SKIP_FREE = "skip_free"
CLASS_TRIANGULAR = "triangular"
CLASS_DISCRETE_CM = "discrete_cm"
CLASS_NONE = "none"

# in precedence order, exact classes before approximate ones: the first
# hit labels the data. Each entry looks its detector up at call time, so
# rebinding a module attribute (as tracers and test spies do) reaches the
# dispatcher too
DETECTORS = {
    "skip_free": lambda data: recover_skipfree(data),
    "triangular": lambda data: recover_triangular(data),
    "exponential": lambda data: recover_exponential(data),
    "discrete_cm": lambda data: recover_cm_discrete(data),
}
DETECTOR_ORDER = tuple(DETECTORS)

MAX_NEG_WINDOW = 32
FIT_TOL = 1e-6
EPS_CM = 1e-10
COND_LIMIT = 1e12
# sup distance within which the skip-free candidate's forward powers match,
# and within which the discrete_cm correlation system must be solved
CONSISTENCY_TOL = 1e-9
# mass below this is treated as absent when reading support patterns
# (iterated large-window convolutions leave roundoff dust in support gaps)
PATTERN_TOL = 1e-12

__all__ = [
    "CLASS_EXPONENTIAL",
    "CLASS_SKIP_FREE",
    "CLASS_TRIANGULAR",
    "CLASS_DISCRETE_CM",
    "CLASS_NONE",
    "DETECTOR_ORDER",
    "ReconstructionReport",
    "CorrelationSolution",
    "recover_exponential",
    "recover_skipfree",
    "correlation_lhs_from_data",
    "correlation_inverse",
    "recover_cm_discrete",
    "recover_triangular",
    "extend_by_negative",
    "deconvolve_extension",
    "DeconvolvedData",
    "auto_reconstruct",
]


@dataclass(frozen=True, eq=False)
class ReconstructionReport:
    detected_class: str
    recovered: LatticeDist | None
    residuals: dict[str, float]
    diagnostics: dict[str, object]

    def to_dict(self) -> dict:
        return {
            "detected_class": self.detected_class,
            "recovered": None if self.recovered is None else self.recovered.to_dict(),
            "residuals": self.residuals,
            "diagnostics": self.diagnostics,
        }


# -- shared assembly and fitting helpers ------------------------------------


def _dense_r1(r1: LatticeDist) -> np.ndarray:
    if r1.is_zero:
        return np.zeros(1)
    out = np.zeros(r1.max_index + 1)
    out[r1.min_index :] = r1.weights
    return out


def _back_substitute(rhs: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """x with rhs[i] = sum_{d>=0} coef[d] x[i + d], x zero past the end of rhs.

    The module's one exact triangular solve: from the last row up, each row
    subtracts its known terms in increasing d as a left fold (the scalar
    loop's bits; a dot product's differ), then divides by the pivot coef[0].
    """
    x = np.zeros(len(rhs))
    for i in range(len(rhs) - 1, -1, -1):
        known = coef[1 : len(rhs) - i] * x[i + 1 : i + len(coef)]
        x[i] = np.subtract.reduce(np.concatenate(([rhs[i]], known))) / coef[0]
    return x


def _kernel_design(kernel: LatticeDist, n_rows: int, lags) -> np.ndarray:
    """Matrix of kernel(n + j): row n - 1 for n = 1..n_rows, one column per lag j.

    The kernel must live on the nonnegative lattice.
    """
    dense = _dense_r1(kernel)
    idx = np.arange(1, n_rows + 1)[:, None] + np.asarray(lags, dtype=int)[None, :]
    inside = (idx >= 0) & (idx < len(dense))
    return np.where(inside, dense[np.clip(idx, 0, len(dense) - 1)], 0.0)


def _first_visible(r: LatticeDist) -> int | None:
    """Lowest index carrying mass above PATTERN_TOL, None when there is none."""
    idx = r.indices()[r.weights > PATTERN_TOL]
    return int(idx[0]) if idx.size else None


def _assemble(r1: LatticeDist, neg_masses: np.ndarray) -> LatticeDist:
    """Distribution with mass neg_masses[j-1] at -j and r1 on the half-line."""
    weights = np.concatenate([neg_masses[::-1], _dense_r1(r1)])
    return lattice(-len(neg_masses), weights)


def _deficit(data: TruncatedData) -> float:
    return max(1.0 - data.restricted_power(1).total, 0.0)


def _nnls_with_mass(design, rhs, weight: float, total: float, cond: float):
    """x >= 0 fitting design x ~ rhs, with sum(x) = total as an extra row
    of the given weight: a solution that cannot carry the full total shows
    up as a residual rather than a silent rescale. A solver failure raises
    ConditioningError carrying the caller's condition number ``cond``.
    """
    # deferred: scipy loads on the first recovery, not on `import whlab`
    from scipy.optimize import nnls

    stacked = np.vstack([design, np.full((1, design.shape[1]), weight)])
    target = np.concatenate([rhs, [weight * total]])
    try:
        return nnls(stacked, target)[0]
    except RuntimeError as exc:
        raise ConditioningError(
            "nonnegative solver failed: %s" % exc, condition_number=cond
        ) from exc


def _window_search(points: np.ndarray, rhs: np.ndarray, total: float):
    """Accept the smallest negative window whose fit carries the deficit.

    Window w fits masses at -1..-w to the terms exp(-lam j) at the probe
    points. Every candidate, the empty window included, is solved as a
    nonnegative mass vector that must carry the deficit (a mass row of
    weight 1e8), so a window is accepted only when a genuine distribution
    reproduces the transform data within tolerance. Conditioning is that of
    the design restricted to the constraint surface, which is what the
    unconstrained directions actually see. Nothing is ever returned on a
    failed fit; the alternative (the best-residual solution over all
    windows) is exactly the overfitted oscillating garbage ill-conditioned
    designs produce.

    Returns (x, sup, relative, cond, w): the sup residual over the raw
    equations, and that residual relative to max(1, sup |rhs|).
    """
    # deferred: scipy loads on the first recovery, not on `import whlab`
    from scipy.linalg import null_space

    rhs_scale = max(1.0, float(np.abs(rhs).max()))
    terms = np.exp(-np.outer(points, np.arange(1, MAX_NEG_WINDOW + 1)))
    for w in range(MAX_NEG_WINDOW + 1):
        design = terms[:, :w]
        cond = 1.0
        if w < 2:
            x = np.full(w, total)  # no window, or the whole deficit at -1
        else:
            sv = np.linalg.svd(design @ null_space(np.ones((1, w))), compute_uv=False)
            cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
            x = _nnls_with_mass(design, rhs, 1e8, total, cond)
        if cond > COND_LIMIT:
            break
        sup = float(np.abs(design @ x - rhs).max())
        mass_ok = abs(float(x.sum()) - total) <= 1e-6 * max(1.0, total)
        if sup / rhs_scale <= FIT_TOL and mass_ok:
            return x, sup, sup / rhs_scale, cond, w
    raise ConditioningError(
        "no negative window fits the transform data with a distribution",
        condition_number=cond,
    )


def recover_exponential(data: TruncatedData) -> ReconstructionReport:
    """Transform-route recovery under a moment certificate.

    A certified moment generating value above one (the hypothesis of the
    paper's case 1) makes E[e^{lam S_n}; S_n >= 0] grow like the powers of
    the full transform, so the ratios of successive restricted moment
    generating values, where they stabilize, estimate the full transform
    at probe lambdas between a twentieth of the witness and the probe cap.
    Stabilized is the certificate's own rule, ``_stabilized_growth``
    (four ratios over the last five nonzero powers within 1e-8 of the
    last), and E[e^{lam X}; X >= 0] is evaluated at the kept lambdas only.
    The negative window is then fitted by least squares constrained to
    carry exactly the missing mass.
    """
    r1 = data.restricted_power(1)
    deficit = _deficit(data)
    conditions = exp_moment_conditions(data)
    if conditions.b_witness is None:
        raise ClassNotDetected(
            "no super-unit moment generating value is certified by the data"
        )
    grid = np.geomspace(
        max(conditions.b_witness / 20.0, 1e-6), conditions.lambda_cap, 40
    )
    lambdas = np.unique(np.concatenate([[conditions.b_witness], grid]))
    growth, stabilized = _stabilized_growth(data, lambdas)
    points = lambdas[stabilized]
    if len(points) < 4:
        raise ConditioningError(
            "too few stabilized moment-generating probes",
            condition_number=float("inf"),
        )
    rhs = growth[stabilized] - np.exp(log_restricted_mgf(data, points, 1))
    x, sup, relative, cond, width = _window_search(points, rhs, deficit)
    recovered = _assemble(r1, x)
    residuals = {
        "fit_residual": sup,
        "relative_residual": relative,
        "deficit": deficit,
    }
    diagnostics = {
        "negative_window": width,
        "b_witness": conditions.b_witness,
        "n_transform_points": int(len(points)),
        "condition_number": cond,
    }
    return ReconstructionReport(CLASS_EXPONENTIAL, recovered, residuals, diagnostics)


# -- skip-free detection -----------------------------------------------------


def recover_skipfree(data: TruncatedData) -> ReconstructionReport:
    """Detect and invert the class with negative support exactly {-1}.

    The mass deficit of restricted(1) pins the only admissible candidate,
    whatever the drift, which is accepted iff its forward powers reproduce
    every observed restricted power within CONSISTENCY_TOL; otherwise the
    class is not detected. The candidate reproduces r1 by construction, so
    r2 is the first power that can refute it: r1 and r2 are checked first,
    and a refuted candidate costs a two-step walk, not an N-step one;
    acceptance still reads every power. At horizon 1 nothing could refute
    the candidate: with a positive deficit the class is not detected
    there. A zero r1 is not detected either: every law on the negative
    half-line gives the same all-zero data, so the data do not single out
    delta(-1). The reported drift ("drifts_plus", "drifts_minus" or
    "oscillates") is the sign of the accepted law's mean (a finite-mean
    walk drifts that way, and oscillates at mean zero), with
    |mean| <= MASS_TOL, the tolerance of a proper law, read as zero.
    """
    r1 = data.restricted_power(1)
    if r1.is_zero:
        raise ClassNotDetected("r1 is zero: the step law lives on the negative half-line")
    deficit = _deficit(data)
    if data.horizon < 2 and deficit > 0.0:
        raise ClassNotDetected(
            "one restricted power cannot refute the mass-deficit candidate"
        )
    candidate = _assemble(r1, np.array([deficit]))
    # the first n steps of the N-step walk are the n-step walk, bit for bit,
    # so a gap seen at r2 is a gap of the full check
    for n in sorted({min(2, data.horizon), data.horizon}):
        consistency = _table_gap(truncated_data(candidate, n).table, data.table[:n])
        if consistency > CONSISTENCY_TOL:
            raise ClassNotDetected(
                "forward powers of the mass-deficit candidate do not match the data"
            )
    mean = float(candidate.indices() @ candidate.weights)
    if abs(mean) <= MASS_TOL:
        drift = "oscillates"
    else:
        drift = "drifts_plus" if mean > 0.0 else "drifts_minus"
    diagnostics = {"drift": drift}
    residuals = {"consistency_sup": consistency, "deficit": deficit}
    return ReconstructionReport(CLASS_SKIP_FREE, candidate, residuals, diagnostics)


def _table_gap(a: np.ndarray, b: np.ndarray) -> float:
    """sup |a - b| over two nonnegative tables with equal row counts, the
    narrower one zero-padded: the largest ``sup_distance`` of their rows."""
    if a.shape[1] < b.shape[1]:
        a, b = b, a
    width = b.shape[1]
    # row by row: a whole-table difference would allocate two tables
    gap = max(float(np.abs(ra[:width] - rb).max()) for ra, rb in zip(a, b))
    return max(gap, float(a[:, width:].max())) if a.shape[1] > width else gap


# -- one-sided correlation ---------------------------------------------------


def correlation_lhs_from_data(data: TruncatedData) -> np.ndarray:
    """b(n) = (restricted(2)(n) - sum_{k=1}^{n-1} r1(n-k) r1(k)) / 2, n >= 1.

    Equals the one-sided correlation sum_{j>=0} mu(-j) mu(n+j): the second
    power sees ordered pairs of signed summands once each, the subtraction
    removes the pairs with both parts observable, and the half undoes the
    two orderings of a mixed pair.
    """
    if data.horizon < 2:
        raise DomainError("correlation sequence needs horizon >= 2")
    pos = _dense_r1(data.restricted_power(1))
    # the appended zero is r2(1) when r2 is empty or lives on {0}
    r2 = np.append(_dense_r1(data.restricted_power(2)), 0.0)
    length = max(len(r2) - 2, 1)
    auto = np.convolve(pos, pos)
    n = np.arange(1, length + 1)
    inner = np.where(n < len(auto), auto[np.minimum(n, len(auto) - 1)], 0.0)
    # remove pairs (k, n-k) with k = 0 and k = n: those involve mu(0..n)
    # only through the j = 0 correlation term, which stays
    pos_n = pos[np.minimum(n, len(pos) - 1)]
    boundary = np.where(n < len(pos), 2.0 * pos[0] * pos_n, 0.0)
    return 0.5 * (r2[1 : length + 1] - (inner - boundary))


@dataclass(frozen=True)
class CorrelationSolution:
    masses: np.ndarray
    residual_sup: float
    rank: int
    rank_deficient: bool
    condition_number: float


def _correlation_solve(design, b, deficit: float):
    """Nonnegative solve of lags 1..n under the deficit (mass row weight
    1e3 max(sigma_max, 1)), rescaled to carry it exactly."""
    n_lags = design.shape[1]
    sv = np.linalg.svd(design, compute_uv=False)
    top = float(sv[0])
    rank = int(np.sum(sv > max(top, 1.0) * 1e-10))
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    x = _nnls_with_mass(design, b, 1e3 * max(top, 1.0), deficit, cond)
    total = float(x.sum())
    if deficit > 0.0 and total > 0.0:
        x = x * (deficit / total)
    fit = design @ x - b
    return CorrelationSolution(
        masses=x,
        residual_sup=float(np.abs(fit).max()),
        rank=rank,
        rank_deficient=rank < n_lags,
        condition_number=cond,
    )


def correlation_inverse(kernel: LatticeDist, b, deficit: float) -> CorrelationSolution:
    """Nonnegative inversion of the one-sided correlation against a kernel.

    Solves b(n) ~ sum_j x_j kernel(n + j) for lags j = 1.. under x >= 0 and
    sum x = deficit. Lag windows grow from 1 up to min(len(b), 16) and the
    first whose residual is within CONSISTENCY_TOL is returned, else the
    widest, which keeps an underdetermined wide system from inventing deep
    tail mass. The design rank at the returned window comes from its
    singular values.
    """
    if kernel.is_zero:
        raise DomainError("kernel must be nonzero")
    if kernel.min_index < 0:
        raise DomainError("kernel must live on the nonnegative lattice")
    try:
        (deficit,) = _finite_vector("mass deficit", [deficit]).tolist()
    except DomainError:
        raise DomainError("mass deficit must be finite, got %r" % (deficit,)) from None
    if deficit < -MASS_TOL:
        raise DataInconsistencyError("negative mass deficit %g" % deficit)
    deficit = max(deficit, 0.0)
    b = _finite_vector("correlation sequence", b)
    n_rows = len(b)
    if n_rows == 0:
        raise DomainError("empty correlation sequence")
    widest = min(n_rows, 16)
    full = _kernel_design(kernel, n_rows, range(1, widest + 1))
    for w in range(1, widest + 1):
        sol = _correlation_solve(full[:, :w], b, deficit)
        if sol.residual_sup <= CONSISTENCY_TOL:
            break
    return sol


# -- discrete completely monotone recovery -----------------------------------


def _cm_test(seq: np.ndarray):
    """Alternating finite differences of orders 0..16 of the zero-padded sequence.

    Returns (passes, first failing order or None). The per-order tolerance
    grows with the binomial weight 2^k to absorb roundoff on long inputs.
    """
    scale = float(np.abs(seq).max()) if seq.size else 0.0
    work = np.concatenate([seq, np.zeros(17)])
    sign = 1.0
    for order in range(17):
        tol = EPS_CM + (2.0**order) * 1e-15 * max(1.0, scale)
        if np.any(sign * work < -tol):
            return False, order
        work = np.diff(work)
        sign = -sign
    return True, None


def recover_cm_discrete(data: TruncatedData) -> ReconstructionReport:
    """Recovery when restricted(1) is completely monotone.

    A completely monotone positive part (the paper's case 2) passes the
    alternating-difference gate; the correlation b(n) with the j = 0 term
    removed is then inverted against restricted(1) as kernel for
    nonnegative masses at -1, -2, ... carrying the mass deficit. A system
    that no lag window solves within CONSISTENCY_TOL raises
    ClassNotDetected; a window that solves it at deficient design rank
    does not determine the masses, so it raises ConditioningError. Neither
    claims a recovery.
    """
    if data.horizon < 2:
        raise ClassNotDetected("correlation sequence needs horizon >= 2")
    r1 = data.restricted_power(1)
    if r1.is_zero:
        raise ClassNotDetected("restricted(1) carries no mass")
    pos = _dense_r1(r1)
    if len(pos) < 4:
        raise ClassNotDetected(
            "positive support of width %d cannot identify geometric atoms"
            % len(pos)
        )
    cm_ok, failing = _cm_test(pos)
    if not cm_ok:
        raise ClassNotDetected(
            "restricted(1) is not completely monotone (order %d difference "
            "changes sign)" % failing
        )
    deficit = _deficit(data)
    b_corr = correlation_lhs_from_data(data)
    # b(n) - mu(0) r1(n) for n = 1..min(len(b), top of r1): removing the
    # j = 0 correlation term leaves the part carried by the masses at -1, -2, ...
    usable = min(len(b_corr), len(pos) - 1)
    b_tilde = b_corr[:usable] - pos[0] * pos[1 : usable + 1]
    sol = correlation_inverse(r1, b_tilde, deficit)
    if sol.residual_sup > CONSISTENCY_TOL:
        raise ClassNotDetected(
            "the correlation inversion leaves a residual of %.3g"
            % sol.residual_sup
        )
    if sol.rank_deficient:
        raise ConditioningError(
            "correlation inversion has a rank-deficient design "
            "(rank %d of %d lags)" % (sol.rank, len(sol.masses)),
            condition_number=sol.condition_number,
        )
    recovered = _assemble(r1, sol.masses)
    residuals = {"system_residual": sol.residual_sup, "deficit": deficit}
    diagnostics = {"rank": sol.rank, "window": int(len(sol.masses))}
    return ReconstructionReport(CLASS_DISCRETE_CM, recovered, residuals, diagnostics)


# -- triangular (gap-pattern) recovery ---------------------------------------


def recover_triangular(data: TruncatedData) -> ReconstructionReport:
    """Exact solve when the support pattern makes the correlation triangular.

    Reads a and b off the data: the second power vanishes exactly on 0..a,
    and the positive support starts at a+b with no interior zeros. Under
    that pattern any mass at or below -b would force visible second-power
    mass in the gap, so the negative support is confined to -1..-(b-1) and
    the correlation equations solve one mass at a time, deepest first
    (:func:`_back_substitute`, pivot r1(a+b)). A mass at or below 1e-12 is
    refused before a correlation sequence too short for the pattern.
    """
    if data.horizon < 2:
        raise ClassNotDetected("triangular pattern needs horizon >= 2")
    r1 = data.restricted_power(1)
    r2 = data.restricted_power(2)
    start1 = _first_visible(r1)
    start2 = _first_visible(r2)
    if start1 is None or start2 is None:
        raise ClassNotDetected("vanishing restricted powers")
    a = start2 - 1
    if a < 0:
        raise ClassNotDetected("second power carries mass within 0..a")
    b = start1 - a
    if b < 2:
        raise ClassNotDetected("no negative window between the support gaps")
    body = r1.weights[start1 - r1.min_index :]
    if np.any(body <= PATTERN_TOL):
        raise ClassNotDetected("positive support has interior zeros")

    deficit = _deficit(data)
    b_corr = correlation_lhs_from_data(data)
    # rows n = a+b-1 down to a+1 read mass -j through r1(n + j), so
    # solved[j-1] = mass at -j, all b - 1 of them when the data has the rows
    coef = np.append(_dense_r1(r1), np.zeros(b))[a + b : a + 2 * b - 1]
    solved = _back_substitute(b_corr[a : a + b - 1][::-1], coef)
    for i in range(len(solved) - 1, -1, -1):
        if solved[i] <= 1e-12:
            raise DataInconsistencyError(
                "triangular solve produced nonpositive mass %g at -%d"
                % (solved[i], b - len(solved) + i)
            )
    if len(solved) < b - 1:
        raise ClassNotDetected("correlation sequence too short for the pattern")

    # column by column, not design @ solved: a matmul changes the last bits
    design = _kernel_design(r1, len(b_corr), range(1, b))
    pred = np.zeros(len(b_corr))
    for j in range(1, b):
        pred += solved[j - 1] * design[:, j - 1]
    system_residual = float(np.abs(pred - b_corr).max())
    unassigned = deficit - float(solved.sum())

    recovered = _assemble(r1, solved)
    residuals = {
        "system_residual": system_residual,
        "unassigned_mass": unassigned,
        "deficit": deficit,
    }
    diagnostics: dict[str, object] = {
        "a": int(a),
        "b": int(b),
        "pivot": float(coef[0]),
    }
    return ReconstructionReport(CLASS_TRIANGULAR, recovered, residuals, diagnostics)


# -- shifting data by a nonpositive factor ------------------------------------


def extend_by_negative(data: TruncatedData, nu: LatticeDist) -> TruncatedData:
    """Half-line data of mu * nu from half-line data of mu and full nu.

    Exact: nu^{*n} only moves mass down, so the nonnegative part of
    (mu * nu)^{*n} never involves the unobserved negative part of mu^{*n}.
    """
    if nu.is_zero:
        raise DomainError("nu must be a proper distribution")
    if nu.max_index > 0:
        raise DomainError("nu must be supported on the nonpositive lattice")
    if not nu.is_proper():
        raise DomainError("nu must be proper")
    # nu moves mass down only, so each row fits in the data's own width
    table = np.zeros(data.table.shape)
    width = 1
    power = None
    for n in range(1, data.horizon + 1):
        power = nu if power is None else convolve(power, nu)
        row = split_nonneg(convolve(data.restricted_power(n), power))[1]
        table[n - 1, row.offset : row.max_index + 1] = row.weights
        width = max(width, row.max_index + 1)
    return TruncatedData(data.horizon, table[:, :width])


@dataclass(frozen=True)
class DeconvolvedData:
    """The first power recovered from extended data, with its frontier.

    ``determined_from`` is the smallest index at which ``r1`` is recovered;
    below it the division has no information (this happens iff nu(0) = 0,
    when extension is a lossy shift). The head below the frontier is
    filled in from the second power's product relations whenever the
    data's support top makes them solvable, after which ``determined_from``
    drops to 0. ``stable`` is False when the divisor's pivot is too small
    to divide by safely or back-substitution noise grew out of the
    probability range; the repeated unit-magnitude root of the divisor
    amplifies roundoff polynomially in the support length, so an unstable
    ``r1`` is zeroed instead of reported as masses.
    """

    r1: LatticeDist
    determined_from: int
    stable: bool


def _refine_head(r1: LatticeDist, r2: LatticeDist, gap: int):
    """Recover r1(0..gap-1) from r2 = r1*r1 values above the frontier.

    For j >= 2*gap every product pair in r2(j) has at most one factor
    below the frontier, so rows j = top..top+gap-1 are triangular in the
    missing head, with pivot 2 r1(top) (:func:`_back_substitute`). Needs
    the exact support top, hence untruncated data with top >= 2*gap, and
    a top mass of at least 1e-12 as divisor. Returns None when any of
    that fails; masses outside [0, 1] mean the data was not a
    bounded-support first power and also return None.
    """
    top = r1.max_index
    p1 = _dense_r1(r1)
    if top < 2 * gap or p1[top] < 1e-12:
        return None
    if r2.max_index < top + gap - 1:
        return None
    p2 = _dense_r1(r2)
    # r2(j) less its products r1(m) r1(j - m) with both factors at or
    # above the frontier, m increasing
    rhs = []
    for j in range(top, top + gap):
        both = p1[gap : j - gap + 1] * p1[j - gap : gap - 1 : -1]
        rhs.append(np.subtract.reduce(np.concatenate(([p2[j]], both))))
    head = _back_substitute(rhs, 2.0 * p1[top : top - gap : -1])
    if head.min() < -1e-8 or head.max() > 1.0 + 1e-8:
        return None
    head = np.clip(head, 0.0, None)
    return lattice(0, np.concatenate([head, p1[gap:]]))


def _divide(ext: LatticeDist, power: LatticeDist, lift: int) -> LatticeDist | None:
    """r on lift, lift + 1, ... with ext(k) = sum_{j>=0} r(lift + k + j) w(j),
    where w(j) = power(-lift - j) and power's top sits at -lift.

    Back-substitutes from the top of ext down (:func:`_back_substitute`).
    Returns None when the pivot w(0) is so small against the largest w
    that roundoff alone could push a mass past the range slack, or when
    roundoff did push a mass out of [0, 1] (NaN fails that check too).
    """
    if ext.is_zero:
        return zero_measure()
    top = ext.max_index
    # w(0..min(depth, top)); zero where power's top fell below -lift
    w = np.concatenate([np.zeros(-lift - power.max_index), power.weights[::-1]])[: top + 1]
    slack = 1e-8  # how far roundoff may carry a mass outside [0, 1]
    if w[0] <= 0.0 or np.finfo(float).eps * w.max() > slack * w[0]:
        return None
    rec = _back_substitute(_dense_r1(ext), w)
    rec[np.abs(rec) < 1e-15] = 0.0
    if not (rec.min() >= -slack and rec.max() <= 1.0 + slack):
        return None
    return lattice(lift, np.clip(rec, 0.0, None))


def deconvolve_extension(extended: TruncatedData, nu: LatticeDist) -> DeconvolvedData:
    """Recover r1 from :func:`extend_by_negative` data by long division.

    With w = nu^{*n} supported on [-L, 0], ext(k) = sum_j r(k+j) w(-j) is
    upper triangular in r read from the highest index down, so r follows by
    back-substitution whenever w(0) > 0; otherwise the recoverable range
    starts at n times the top gap of nu. Only r1 is divided, and r2 as well
    when that gap is positive, to fill in r1's head below the frontier.
    """
    if nu.is_zero or nu.max_index > 0:
        raise DomainError("nu must be nonzero on the nonpositive lattice")
    gap = -nu.max_index
    r1 = _divide(extended.restricted_power(1), nu, gap)
    if r1 is None:
        return DeconvolvedData(zero_measure(), gap, False)
    if gap > 0 and extended.horizon >= 2:
        r2 = _divide(extended.restricted_power(2), convolve(nu, nu), 2 * gap)
        refined = None if r2 is None else _refine_head(r1, r2, gap)
        if refined is not None:
            return DeconvolvedData(refined, 0, True)
    return DeconvolvedData(r1, gap, True)


# -- dispatcher ---------------------------------------------------------------


def auto_reconstruct(data: TruncatedData, detectors=None) -> ReconstructionReport:
    """Run the class detectors and return the first hit in ``DETECTORS`` order.

    Every enabled detector runs once and its verdict is attached; the
    exact classes (skip_free, triangular) come first, then the
    exponential transform route, then discrete_cm. With no hit the report
    is ``none``: no recovered law, no residuals, and the verdicts as its
    only diagnostics. ``detectors`` is None for all of them, or a nonempty
    collection of names from ``DETECTOR_ORDER``.
    """
    if isinstance(detectors, str) or not (detectors is None or np.iterable(detectors)):
        raise DomainError("detectors must be a collection of names, not %r" % detectors)
    enabled = DETECTOR_ORDER if detectors is None else tuple(detectors)
    if not enabled:
        raise DomainError("detectors must name at least one of %s" % list(DETECTOR_ORDER))
    for name in enabled:
        if name not in DETECTOR_ORDER:
            raise DomainError("unknown detector %r" % name)
    verdicts: dict[str, str] = {}
    hit: ReconstructionReport | None = None
    for name, detector in DETECTORS.items():
        if name not in enabled:
            verdicts[name] = "disabled"
            continue
        try:
            report = detector(data)
        except ClassNotDetected as exc:
            verdicts[name] = "not_detected: %s" % exc
            continue
        except (ConditioningError, DataInconsistencyError) as exc:
            verdicts[name] = "failed: %s" % exc
            continue
        verdicts[name] = "detected: %s" % report.detected_class
        if hit is None:
            hit = report

    if hit is None:
        return ReconstructionReport(CLASS_NONE, None, {}, {"detector_verdicts": verdicts})
    diagnostics = {**hit.diagnostics, "detector_verdicts": verdicts}
    return replace(hit, diagnostics=diagnostics)
