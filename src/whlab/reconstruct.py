"""Recovery of a step distribution from its half-line convolution powers.

Everything here consumes a :class:`~whlab.data.TruncatedData` and nothing
else. Four structural classes are detected and inverted:

* exponential: a geometric bound on P(S_n < 0), or a certified moment
  generating value in (1, infinity), lets the ratio statistic recover the
  transform near 0, after which the negative window is fitted by
  mass-constrained least squares;
* skip_free: the only negative mass sits at -1; the candidate is forced by
  the mass deficit and accepted by exact forward consistency;
* triangular: a gap pattern (positive support starting at a+b, second
  power vanishing through a) makes the one-sided correlation system
  triangular and exactly solvable;
* discrete_cm: a completely monotone positive part turns the correlation
  sequence into a finite Hausdorff moment problem solved through its
  geometric atoms, cross-checked against direct kernel inversion.

The dispatcher walks the ``DETECTORS`` table (name to detector call, in
``DETECTOR_ORDER``), runs every enabled detector once and labels by
precedence exact-before-approximate. Reported residuals and rank flags are
the honesty layer: a rank-deficient kernel yields a flag, never a
fabricated answer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import nnls

from .data import TruncatedData, packed_restricted, truncated_data
from .errors import (
    ClassNotDetected,
    ConditioningError,
    DataInconsistencyError,
    DomainError,
)
from .ladder import (
    UPWARD,
    drift_classify,
    exp_moment_conditions,
    ladder_law,
    log_restricted_mgf,
    neg_prob_sequence,
)
from .lattice import (
    MASS_TOL,
    LatticeDist,
    convolve,
    lattice,
    restrict_nonneg,
    sup_distance,
    tv_distance,
    zero_measure,
)

CLASS_EXPONENTIAL = "exponential"
CLASS_SKIP_FREE = "skip_free"
CLASS_TRIANGULAR = "triangular"
CLASS_DISCRETE_CM = "discrete_cm"
CLASS_NONE = "none"

# each entry looks its detector up at call time, so rebinding a module
# attribute (as tracers and test spies do) reaches the dispatcher too
DETECTORS = {
    "exponential": lambda data, truth: recover_exponential(data, truth=truth),
    "skip_free": lambda data, truth: recover_skipfree(data, truth=truth),
    "triangular": lambda data, truth: recover_triangular(data, truth=truth),
    "discrete_cm": lambda data, truth: recover_cm_discrete(data, truth=truth),
}
DETECTOR_ORDER = tuple(DETECTORS)
# exact classes outrank approximate ones when several detectors fire
LABEL_PRECEDENCE = (
    CLASS_SKIP_FREE,
    CLASS_TRIANGULAR,
    CLASS_EXPONENTIAL,
    CLASS_DISCRETE_CM,
)

MAX_NEG_WINDOW = 32
FIT_TOL = 1e-6
EPS_CM = 1e-10
EPS_V = 1e-8
COND_LIMIT = 1e12
# sup distance within which the skip-free candidate's forward powers match
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


def _kernel_design(kernel: LatticeDist, n_rows: int, lags) -> np.ndarray:
    """Matrix of kernel(n + j): row n - 1 for n = 1..n_rows, one column per lag j.

    The kernel must live on the nonnegative lattice.
    """
    dense = _dense_r1(kernel)
    idx = np.arange(1, n_rows + 1)[:, None] + np.asarray(lags, dtype=int)[None, :]
    inside = (idx >= 0) & (idx < len(dense))
    return np.where(inside, dense[np.clip(idx, 0, len(dense) - 1)], 0.0)


def _b_tilde(r1: LatticeDist, b_corr: np.ndarray) -> np.ndarray:
    """b(n) - mu(0) r1(n) for n = 1..min(len(b), top of r1).

    Removes the j = 0 term of the one-sided correlation, leaving the part
    carried by the unknown masses at -1, -2, ...
    """
    usable = min(len(b_corr), max(1, r1.max_index))
    return b_corr[:usable] - r1.mass(0) * _kernel_design(r1, usable, [0])[:, 0]


def _first_visible(r: LatticeDist) -> int | None:
    """Lowest index carrying mass above PATTERN_TOL, None when there is none."""
    if r.is_zero:
        return None
    idx = r.indices()[r.weights > PATTERN_TOL]
    return int(idx[0]) if idx.size else None


def _assemble(r1: LatticeDist, neg_masses: np.ndarray) -> LatticeDist:
    """Distribution with mass neg_masses[j-1] at -j and r1 on the half-line."""
    w = int(len(neg_masses))
    pos = _dense_r1(r1)
    if w == 0:
        return lattice(0, pos)
    weights = np.concatenate([np.maximum(neg_masses, 0.0)[::-1], pos])
    return lattice(-w, weights)


def _deficit(data: TruncatedData) -> float:
    d = 1.0 - data.restricted_power(1).total
    if d < -MASS_TOL:
        raise DataInconsistencyError("restricted(1) mass exceeds one by %g" % -d)
    return max(d, 0.0)


def _mass_constrained_fit(design: np.ndarray, rhs: np.ndarray, total: float):
    """Nonnegative least squares under sum(x) = total.

    The mass constraint rides along as a heavily weighted extra row, so a
    solution that cannot carry the full deficit shows up as a residual
    rather than silently rescaling. Returns (x, sup_residual, cond) with
    the residual taken over the raw equations only. Conditioning is that
    of the design restricted to the constraint surface, which is what the
    unconstrained directions actually see.
    """
    m = design.shape[1]
    if m == 0:
        sup = float(np.abs(rhs).max()) if rhs.size else 0.0
        return np.zeros(0), sup, 1.0
    if m == 1:
        x = np.array([total])
        cond = 1.0
    else:
        basis = null_space(np.ones((1, m)))
        reduced = design @ basis
        sv = np.linalg.svd(reduced, compute_uv=False)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
        weight = 1e8
        stacked = np.vstack([design, weight * np.ones((1, m))])
        target = np.concatenate([rhs, [weight * total]])
        try:
            x, _ = nnls(stacked, target)
        except RuntimeError:
            return np.full(m, total / m), float("inf"), cond
    sup = float(np.abs(design @ x - rhs).max())
    return x, sup, cond


_STAB_TOL = 5e-8


def _char_ratio_points(data: TruncatedData):
    """Characteristic-function estimates by the ratio statistic.

    Shrinks the t-interval until 16 of its 49 points have a stabilized
    ratio (possible whenever the geometric decay condition holds, because
    the transform tends to 1 at 0).
    """
    packed = packed_restricted(data)
    head, tail = packed[0].astype(complex), packed[-3:].astype(complex)
    idx = np.arange(packed.shape[1])
    half_width = 1.0
    for _ in range(8):
        t = np.linspace(-half_width, half_width, 49)
        phases = np.exp(1j * np.outer(idx, t))
        a3, a2, a1 = tail @ phases
        safe = (np.abs(a2) > 1e-280) & (np.abs(a3) > 1e-280)
        est = np.where(safe, a1 / np.where(safe, a2, 1.0), 0.0)
        prev = np.where(safe, a2 / np.where(safe, a3, 1.0), 0.0)
        stable = safe & (np.abs(est - prev) <= _STAB_TOL * np.maximum(1.0, np.abs(est)))
        if stable.sum() >= 16:
            # a vector-matrix product, not a row of the one above: BLAS
            # sums the two in different orders
            return t[stable], est[stable], (head @ phases)[stable]
        half_width /= 2.0
    raise ConditioningError(
        "ratio statistic failed to stabilize on any characteristic grid",
        condition_number=float("inf"),
    )


def _mgf_ratio_points(data: TruncatedData, lambdas: np.ndarray):
    """Moment-generating estimates at probe lambdas with stabilized ratios."""
    n = data.horizon
    log1, a3, a2, a1 = (log_restricted_mgf(data, lambdas, k) for k in (1, n - 2, n - 1, n))
    with np.errstate(invalid="ignore", over="ignore"):
        ratio = np.exp(a1 - a2)
        drift = np.abs(ratio - np.exp(a2 - a3))
    stable = drift <= _STAB_TOL * np.maximum(1.0, np.abs(ratio))
    keep = np.isfinite(a3) & np.isfinite(a2) & np.isfinite(a1) & stable
    return lambdas[keep], ratio[keep], np.exp(log1[keep])


def _window_search(design_fn, rhs, total):
    """Accept the smallest negative window whose fit carries the deficit.

    Every candidate is solved as a nonnegative mass vector, so a window is
    accepted only when a genuine sub-distribution reproduces the transform
    data within tolerance. Nothing is ever returned on a failed fit; the
    alternative (the best-residual solution over all windows) is exactly
    the overfitted oscillating garbage ill-conditioned designs produce.
    """
    rhs_scale = max(1.0, float(np.abs(rhs).max()) if rhs.size else 1.0)
    last_cond = None
    for w in range(MAX_NEG_WINDOW + 1):
        design = design_fn(w)
        x, sup, cond = _mass_constrained_fit(design, rhs, total)
        last_cond = cond
        if cond > COND_LIMIT:
            break
        mass_ok = x.size == 0 or abs(float(x.sum()) - total) <= 1e-6 * max(1.0, total)
        if sup / rhs_scale <= FIT_TOL and mass_ok:
            return x, sup, cond, w
    raise ConditioningError(
        "no negative window fits the transform data with a distribution",
        condition_number=last_cond if last_cond is not None else float("inf"),
    )


def recover_exponential(
    data: TruncatedData, truth: LatticeDist | None = None
) -> ReconstructionReport:
    """Transform-route recovery under a decay or moment certificate.

    The geometric-decay route estimates the characteristic function at
    stabilized ratio points; the moment route estimates the real transform
    at certified lambdas. The moment route runs when no decay rate is
    fitted, and also when the ratio statistic fails to stabilize on the
    characteristic grid while a moment certificate holds. Either way the
    negative window is fitted by least squares constrained to carry
    exactly the missing mass.
    """
    r1 = data.restricted_power(1)
    deficit = _deficit(data)
    decay = neg_prob_sequence(data)
    conditions = exp_moment_conditions(data)
    if decay.fitted_alpha is None and not conditions.condition_b:
        raise ClassNotDetected(
            "neither a geometric decay rate nor a super-unit moment "
            "generating value is certified by the data"
        )
    if data.horizon < 3:
        raise ClassNotDetected("horizon below 3 cannot stabilize the ratio statistic")

    points = None
    if decay.fitted_alpha is not None:
        try:
            points, estimates, known = _char_ratio_points(data)
        except ConditioningError:
            if not conditions.condition_b:
                raise

    if points is not None:
        route = "characteristic"
        rhs_c = estimates - known
        rhs = np.concatenate([rhs_c.real, rhs_c.imag])

        def design_fn(w: int) -> np.ndarray:
            cols = np.exp(-1j * np.outer(points, np.arange(1, w + 1)))
            return np.concatenate([cols.real, cols.imag])

    else:
        route = "mgf"
        grid = np.geomspace(
            max(conditions.b_witness / 20.0, 1e-6), conditions.lambda_cap, 40
        )
        lambdas = np.unique(np.concatenate([[conditions.b_witness], grid]))
        points, estimates, known = _mgf_ratio_points(data, lambdas)
        if len(points) < 4:
            raise ConditioningError(
                "too few stabilized moment-generating probes",
                condition_number=float("inf"),
            )
        rhs = estimates - known

        def design_fn(w: int) -> np.ndarray:
            return np.exp(-np.outer(points, np.arange(1, w + 1)))

    x, sup, cond, width = _window_search(design_fn, rhs, deficit)
    recovered = _assemble(r1, x)
    residuals = {
        "fit_residual": sup,
        "relative_residual": sup / max(1.0, float(np.abs(rhs).max()) if rhs.size else 1.0),
        "deficit": deficit,
    }
    if truth is not None:
        residuals["tv_distance"] = tv_distance(recovered, truth)
    diagnostics = {
        "route": route,
        "negative_window": width,
        "alpha": decay.fitted_alpha,
        "alpha_r_squared": decay.r_squared,
        "b_witness": conditions.b_witness,
        "n_transform_points": int(len(points)),
        "condition_number": cond,
    }
    return ReconstructionReport(CLASS_EXPONENTIAL, recovered, residuals, diagnostics)


# -- skip-free detection -----------------------------------------------------


def _skipfree_identity_diagnostics(
    candidate: LatticeDist, horizon: int
) -> dict[str, object]:
    """Renewal-identity diagnostics for an accepted skip-free candidate.

    The overshoot tails of the upward first passage satisfy
    P(S_tau > n, tau < inf) = sum_r v(r) P(S_1 > n + r) with v identically
    one exactly in the downward skip-free non-drifting case. The ladder
    law comes from the candidate's killed-walk DP to the data horizon,
    which the data determine: the candidate's forward powers match them
    within CONSISTENCY_TOL. Both the deviation of the v = 1 prediction and
    a least-squares solve for v are reported; a short positive support
    leaves the system rank-deficient, which is flagged rather than solved.
    """
    r1 = restrict_nonneg(candidate)
    k_top = r1.max_index
    if k_top <= 0:
        return {"v_rank": 0, "v_rank_deficient": True, "v_band": 1.0}
    law = ladder_law(candidate, UPWARD, horizon)
    pos = _dense_r1(r1)
    tail1 = np.concatenate([np.cumsum(pos[::-1])[::-1][1:], [0.0]])
    # upward overshoots never exceed the largest step, k_top
    lhs = np.array([law.masses[:, law.heights > n].sum() for n in range(k_top)])
    band = float(max(0.0, 1.0 - law.total()))

    pred = np.array([tail1[n:].sum() for n in range(k_top)])
    identity_dev = float(np.abs(lhs - pred).max())

    n_cols = max(1, k_top - 1)
    idx = np.arange(k_top)[:, None] + np.arange(1, n_cols + 1)[None, :]
    design = np.where(idx < k_top, tail1[np.minimum(idx, k_top)], 0.0)
    rank = int(np.linalg.matrix_rank(design, tol=1e-12))
    out: dict[str, object] = {
        "v_identity_dev": identity_dev,
        "v_band": band,
        "v_rank": rank,
        "v_rank_deficient": rank < n_cols,
    }
    if rank == n_cols:
        v_hat, *_ = np.linalg.lstsq(design, lhs - tail1[:k_top], rcond=None)
        out["v_hat"] = v_hat
        out["v_max_deviation"] = float(np.abs(v_hat - 1.0).max()) if v_hat.size else 0.0
    return out


def recover_skipfree(
    data: TruncatedData, truth: LatticeDist | None = None
) -> ReconstructionReport:
    """Detect and invert the class with negative support exactly {-1}.

    The mass deficit of restricted(1) pins the only admissible candidate,
    whatever the drift, which is accepted iff its forward powers reproduce
    every observed restricted power within CONSISTENCY_TOL. At horizon 1
    the candidate reproduces r1 by construction, so nothing could refute
    it: with a positive deficit the class is not detected there. A zero r1
    is not detected either: every law on the negative half-line gives the
    same all-zero data, so the data do not single out delta(-1). The drift
    is reported as a diagnostic; the renewal-identity diagnostics are
    computed for an accepted candidate only, from the candidate's own
    killed-walk DP.
    """
    r1 = data.restricted_power(1)
    if r1.is_zero:
        raise ClassNotDetected("r1 is zero: the step law lives on the negative half-line")
    deficit = _deficit(data)
    if data.horizon < 2 and deficit > 0.0:
        raise ClassNotDetected(
            "one restricted power cannot refute the mass-deficit candidate"
        )
    candidate = _assemble(r1, np.array([deficit]) if deficit > 0.0 else np.zeros(0))
    forward = truncated_data(candidate, data.horizon)
    consistency = max(
        sup_distance(forward.restricted_power(n), data.restricted_power(n))
        for n in range(1, data.horizon + 1)
    )
    diagnostics: dict[str, object] = {"drift": drift_classify(data)}
    residuals = {"consistency_sup": consistency, "deficit": deficit}
    if consistency <= CONSISTENCY_TOL:
        diagnostics.update(_skipfree_identity_diagnostics(candidate, data.horizon))
        if truth is not None:
            residuals["tv_distance"] = tv_distance(candidate, truth)
        return ReconstructionReport(CLASS_SKIP_FREE, candidate, residuals, diagnostics)
    diagnostics["reject_reason"] = (
        "forward powers of the mass-deficit candidate do not match the data"
    )
    return ReconstructionReport(CLASS_NONE, None, residuals, diagnostics)


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
    lags: np.ndarray
    masses: np.ndarray
    residual_sup: float
    rank: int
    rank_deficient: bool
    reg_used: float
    condition_number: float


def _correlation_solve(design, b, deficit: float):
    """Constrained nonnegative solve of lags 1..n; escalates reg on failure.

    An ill-conditioned design starts at the smallest nonzero reg.
    """
    n_lags = design.shape[1]
    sv = np.linalg.svd(design, compute_uv=False)
    top = float(sv[0]) if sv.size else 0.0
    rank = int(np.sum(sv > max(top, 1.0) * 1e-10)) if top > 0 else 0
    cond = float(sv[0] / sv[-1]) if sv.size and sv[-1] > 0 else float("inf")

    ladder = [1e-10, 1e-8, 1e-6] if cond > COND_LIMIT else [0.0, 1e-10, 1e-8, 1e-6]
    scale = max(top, 1.0)
    mass_row = np.full((1, n_lags), 1e3 * scale)
    x = None
    reg_used = ladder[-1]
    for reg_used in ladder:
        stacked = np.vstack([design, mass_row])
        target = np.concatenate([b, [1e3 * scale * deficit]])
        if reg_used > 0.0:
            stacked = np.vstack([stacked, np.sqrt(reg_used) * np.eye(n_lags)])
            target = np.concatenate([target, np.zeros(n_lags)])
        try:
            x, _ = nnls(stacked, target)
            break
        except RuntimeError:
            continue
    if x is None:
        raise ConditioningError(
            "nonnegative solver failed at every regularization level",
            condition_number=cond,
        )
    total = float(x.sum())
    if deficit > 0.0 and total > 0.0:
        x = x * (deficit / total)
    fit = design @ x - b
    return CorrelationSolution(
        lags=np.arange(1, n_lags + 1),
        masses=x,
        residual_sup=float(np.abs(fit).max()),
        rank=rank,
        rank_deficient=rank < n_lags,
        reg_used=reg_used,
        condition_number=cond,
    )


def correlation_inverse(kernel: LatticeDist, b, deficit: float) -> CorrelationSolution:
    """Nonnegative inversion of the one-sided correlation against a kernel.

    Solves b(n) ~ sum_j x_j kernel(n + j) for lags j = 1.. under x >= 0 and
    sum x = deficit. Lag windows grow from 1 up to min(len(b), 16) and the
    smallest window that explains the data wins (else the best residual),
    which keeps an underdetermined wide system from inventing deep tail
    mass. The design rank at the reported window comes from its singular
    values; regularization starts at zero, escalates automatically when
    the solve degrades or the design is ill-conditioned, and is always
    reported.
    """
    if kernel.is_zero:
        raise DomainError("kernel must be nonzero")
    if kernel.min_index < 0:
        raise DomainError("kernel must live on the nonnegative lattice")
    if deficit < -MASS_TOL:
        raise DataInconsistencyError("negative mass deficit %g" % deficit)
    deficit = max(deficit, 0.0)
    b = np.asarray(b, dtype=float)
    n_rows = len(b)
    if n_rows == 0:
        raise DomainError("empty correlation sequence")
    widest = min(n_rows, 16)
    full = _kernel_design(kernel, n_rows, range(1, widest + 1))
    b_scale = max(1.0, float(np.abs(b).max()))
    best = None
    for w in range(1, widest + 1):
        sol = _correlation_solve(full[:, :w], b, deficit)
        if best is None or sol.residual_sup < best.residual_sup:
            best = sol
        if sol.residual_sup <= FIT_TOL * b_scale:
            return sol
    return best


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


def _fit_geometric_atoms(pos: np.ndarray):
    from .expfit import pencil_fit

    head = pos[: min(len(pos), 100)]
    fit = pencil_fit(head)
    keep = (fit.nodes > 1e-8) & (fit.nodes < 1.0 - 1e-8) & (fit.weights > 1e-12)
    nodes = fit.nodes[keep]
    weights = fit.weights[keep]
    return nodes, weights, fit.residual


def recover_cm_discrete(
    data: TruncatedData, truth: LatticeDist | None = None
) -> ReconstructionReport:
    """Recovery when restricted(1) is a mixture of geometric sequences.

    The correlation sequence is then a Hausdorff-type moment sequence along
    the mixture atoms: fitting the atoms from restricted(1) turns the
    unknown tail's generating function values at the atoms into a small
    linear system. A direct nonnegative kernel inversion of the same
    correlation runs in parallel and the smaller-residual route wins. A
    direct winner whose design is rank-deficient does not determine the
    masses, so it raises ConditioningError rather than claim a recovery.
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
    b_tilde = _b_tilde(r1, b_corr)

    nodes, node_weights, pencil_residual = _fit_geometric_atoms(pos)
    atoms = list(zip(nodes.tolist(), node_weights.tolist()))

    direct = correlation_inverse(r1, b_tilde, deficit)
    routes: dict[str, tuple[np.ndarray, float]] = {
        "direct": (direct.masses, direct.residual_sup)
    }

    atom_diag: dict[str, object] = {
        "atoms": atoms,
        "pencil_residual": pencil_residual,
    }
    if nodes.size > 0 and pencil_residual <= 1e-6 * max(1.0, pos.max()):
        m_rows = min(len(b_corr), 80)
        vand = nodes[None, :] ** np.arange(1, m_rows + 1)[:, None]
        theta, *_ = np.linalg.lstsq(vand, b_corr[:m_rows], rcond=None)
        targets = theta / node_weights - pos[0]
        n_unknowns = int(nodes.size)
        gf = nodes[:, None] ** np.arange(1, n_unknowns + 1)[None, :]
        scale = max(1.0, float(np.abs(gf).max()))
        stacked = np.vstack([gf, np.full((1, n_unknowns), 1e3 * scale)])
        target = np.concatenate([targets, [1e3 * scale * deficit]])
        x_m, _ = nnls(stacked, target)
        if deficit > 0.0 and x_m.sum() > 0.0:
            x_m = x_m * (deficit / x_m.sum())
        design = _kernel_design(r1, len(b_tilde), range(1, n_unknowns + 1))
        moment_res = float(np.abs(design @ x_m - b_tilde).max())
        routes["moment"] = (x_m, moment_res)
        atom_diag["moment_targets"] = targets
    else:
        atom_diag["moment_route_skipped"] = "atom fit unusable"

    chosen = min(routes, key=lambda k: routes[k][1])
    if chosen == "direct" and direct.rank_deficient:
        raise ConditioningError(
            "direct correlation inversion won with a rank-deficient design "
            "(rank %d of %d lags)" % (direct.rank, len(direct.masses)),
            condition_number=direct.condition_number,
        )
    masses, residual = routes[chosen]
    recovered = _assemble(r1, masses)
    residuals = {
        "system_residual": residual,
        "direct_residual": routes["direct"][1],
        "deficit": deficit,
    }
    if "moment" in routes:
        residuals["moment_residual"] = routes["moment"][1]
    if truth is not None:
        residuals["tv_distance"] = tv_distance(recovered, truth)
    diagnostics: dict[str, object] = {
        "route": chosen,
        # the correlation moments b(1..M) with the geometric atoms behind them
        "moments": {"moments": b_corr, "atoms": atoms or None},
        "direct_rank": direct.rank,
        "direct_rank_deficient": direct.rank_deficient,
        "direct_reg_used": direct.reg_used,
        "direct_window": int(len(direct.masses)),
    }
    diagnostics.update(atom_diag)
    return ReconstructionReport(CLASS_DISCRETE_CM, recovered, residuals, diagnostics)


# -- triangular (gap-pattern) recovery ---------------------------------------


def recover_triangular(
    data: TruncatedData, truth: LatticeDist | None = None
) -> ReconstructionReport:
    """Exact solve when the support pattern makes the correlation triangular.

    Reads a and b off the data: the second power vanishes exactly on 0..a,
    and the positive support starts at a+b with no interior zeros. Under
    that pattern any mass at or below -b would force visible second-power
    mass in the gap, so the negative support is confined to -1..-(b-1) and
    the correlation equations solve one mass at a time, deepest first.
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
    denom = r1.mass(a + b)
    design = _kernel_design(r1, len(b_corr), range(1, b))
    solved = np.zeros(b - 1)  # solved[j-1] = mass at -j
    for m in range(1, b):
        n = a + m
        if n - 1 >= len(b_corr):
            raise ClassNotDetected("correlation sequence too short for the pattern")
        acc = b_corr[n - 1]
        for j in range(b - m + 1, b):
            acc -= solved[j - 1] * design[n - 1, j - 1]
        value = acc / denom
        if value <= 1e-12:
            raise DataInconsistencyError(
                "triangular solve produced nonpositive mass %g at -%d"
                % (value, b - m)
            )
        solved[b - m - 1] = value

    # column by column, not design @ solved: a matmul changes the last bits
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
    if truth is not None:
        residuals["tv_distance"] = tv_distance(recovered, truth)
    diagnostics: dict[str, object] = {
        "a": int(a),
        "b": int(b),
        "pivot": denom,
        # the gap pattern itself rules out mass at or below -b
        "zero_tail_forced": True,
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
    out = []
    power = None
    for n in range(1, data.horizon + 1):
        power = nu if power is None else convolve(power, nu)
        out.append(restrict_nonneg(convolve(data.restricted_power(n), power)))
    return TruncatedData(data.horizon, tuple(out))


@dataclass(frozen=True)
class DeconvolvedData:
    """The first power recovered from extended data, with its frontier.

    ``determined_from`` is the smallest index at which ``r1`` is recovered;
    below it the division has no information (this happens iff nu(0) = 0,
    when extension is a lossy shift). The head below the frontier is
    filled in from the second power's product relations whenever the
    data's support top makes them solvable, after which ``determined_from``
    drops to 0. ``stable`` is False when back-substitution noise grew out
    of the probability range; the repeated unit-magnitude root of the
    divisor amplifies roundoff polynomially in the support length, so an
    unstable ``r1`` is zeroed instead of reported as masses.
    """

    r1: LatticeDist
    determined_from: int
    stable: bool


def _refine_head(r1: LatticeDist, r2: LatticeDist, gap: int):
    """Recover r1(0..gap-1) from r2 = r1*r1 values above the frontier.

    For j >= 2*gap every product pair in r2(j) has at most one factor
    below the frontier, so rows j = top..top+gap-1 are triangular in the
    missing head. Needs the exact support top, hence untruncated data
    with top >= 2*gap, and a nonvanishing top mass as divisor. Returns
    None when any of that fails; masses outside [0, 1] mean the data was
    not a bounded-support first power and also return None.
    """
    if r1.is_zero or r2.is_zero:
        return None
    top = r1.max_index
    if top < 2 * gap or r1.mass(top) < 1e-12:
        return None
    if r2.max_index < top + gap - 1:
        return None
    head = np.zeros(gap)
    for i in range(gap - 1, -1, -1):
        j = top + i
        acc = r2.mass(j)
        for m in range(gap, j - gap + 1):
            acc -= r1.mass(m) * r1.mass(j - m)
        for m in range(i + 1, gap):
            acc -= 2.0 * head[m] * r1.mass(j - m)
        head[i] = acc / (2.0 * r1.mass(top))
    if head.min() < -1e-8 or head.max() > 1.0 + 1e-8:
        return None
    head = np.clip(head, 0.0, None)
    full = np.concatenate([head, [r1.mass(k) for k in range(gap, top + 1)]])
    return lattice(0, full)


def _divide(ext: LatticeDist, power: LatticeDist, lift: int) -> LatticeDist | None:
    """r on lift, lift + 1, ... with ext(k) = sum_{j>=0} r(lift + k + j) w(j),
    where w(j) = power(-lift - j) and power's top sits at -lift.

    Back-substitutes from the top of ext down. Returns None when roundoff
    pushed a mass out of [0, 1].
    """
    if ext.is_zero:
        return zero_measure()
    top = ext.max_index
    depth = -power.min_index - lift
    w = [power.mass(-lift - j) for j in range(min(depth, top) + 1)]
    rec = np.zeros(top + 1)
    for k in range(top, -1, -1):
        acc = ext.mass(k)
        for j in range(1, min(depth, top - k) + 1):
            acc -= rec[k + j] * w[j]
        rec[k] = acc / w[0]
    rec[np.abs(rec) < 1e-15] = 0.0
    if not (np.all(np.isfinite(rec)) and rec.min() >= -1e-8 and rec.max() <= 1.0 + 1e-8):
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


def auto_reconstruct(
    data: TruncatedData,
    detectors=None,
    truth: LatticeDist | None = None,
) -> ReconstructionReport:
    """Run the class detectors and return the highest-precedence hit.

    Every enabled detector runs once and its verdict is attached; among
    the successful ones the exact classes
    (skip_free, triangular) outrank the transform and moment routes. With
    no hit the generic correlation inversion is reported as diagnostics
    only, never as a recovery.
    """
    enabled = DETECTOR_ORDER if detectors is None else tuple(detectors)
    for name in enabled:
        if name not in DETECTOR_ORDER:
            raise DomainError("unknown detector %r" % name)
    verdicts: dict[str, str] = {}
    hits: list[ReconstructionReport] = []
    for name, detector in DETECTORS.items():
        if name not in enabled:
            verdicts[name] = "disabled"
            continue
        try:
            report = detector(data, truth)
        except ClassNotDetected as exc:
            verdicts[name] = "not_detected: %s" % exc
            continue
        except (ConditioningError, DataInconsistencyError) as exc:
            verdicts[name] = "failed: %s" % exc
            continue
        if report.detected_class == CLASS_NONE:
            reason = report.diagnostics.get("reject_reason", "no class structure")
            verdicts[name] = "not_detected: %s" % reason
            continue
        verdicts[name] = "detected: %s" % report.detected_class
        hits.append(report)

    for label in LABEL_PRECEDENCE:
        for report in hits:
            if report.detected_class == label:
                diagnostics = {**report.diagnostics, "detector_verdicts": verdicts}
                return replace(report, diagnostics=diagnostics)

    diagnostics = {"detector_verdicts": verdicts}
    residuals: dict[str, float] = {}
    try:
        r1 = data.restricted_power(1)
        if not r1.is_zero and data.horizon >= 2:
            b_tilde = _b_tilde(r1, correlation_lhs_from_data(data))
            generic = correlation_inverse(r1, b_tilde, _deficit(data))
            diagnostics["generic_inverse"] = {
                "masses": generic.masses,
                "lags": generic.lags,
                "rank": generic.rank,
                "rank_deficient": generic.rank_deficient,
                "residual_sup": generic.residual_sup,
                "reg_used": generic.reg_used,
            }
            residuals["generic_residual"] = generic.residual_sup
    except (DomainError, DataInconsistencyError):
        pass
    return ReconstructionReport(CLASS_NONE, None, residuals, diagnostics)
