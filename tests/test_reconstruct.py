"""Class detection and negative-tail recovery from half-line data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whlab import (
    CLASS_DISCRETE_CM,
    CLASS_EXPONENTIAL,
    CLASS_NONE,
    CLASS_SKIP_FREE,
    CLASS_TRIANGULAR,
    TruncatedData,
    auto_reconstruct,
    convolve,
    correlation_inverse,
    correlation_lhs_from_data,
    deconvolve_extension,
    delta,
    extend_by_negative,
    lattice,
    recover_cm_discrete,
    recover_exponential,
    recover_skipfree,
    recover_triangular,
    truncated_data,
    tv_distance,
    zero_measure,
)
from whlab.errors import (
    ClassNotDetected,
    ConditioningError,
    DataInconsistencyError,
    DomainError,
)
from whlab.generators import geometric_mixture, power_tail_pair, two_point, uniform_window
from whlab.lattice import MASS_TOL, sup_distance
from whlab.reconstruct import (
    CONSISTENCY_TOL,
    _back_substitute,
    _correlation_solve,
    _dense_r1,
    _kernel_design,
)

from conftest import cm_shallow_window_law, cm_unsolved_data, random_corpus
from reference import back_substitute, cross_correlation_direct, data_from_powers


def test_recover_exponential_delta1():
    rep = recover_exponential(truncated_data(delta(1), 60))
    assert rep.detected_class == CLASS_EXPONENTIAL
    assert tv_distance(rep.recovered, delta(1)) <= 1e-12


def test_recover_exponential_two_point_drift():
    mu = lattice(-1, [0.2, 0.0, 0.8])
    rep = recover_exponential(truncated_data(mu, 200))
    assert rep.detected_class == CLASS_EXPONENTIAL
    assert tv_distance(rep.recovered, mu) <= 1e-6


def test_recover_exponential_bounded_support_zero_mean(ssrw, ssrw_data):
    # bounded support away from delta_0 always carries a finite moment
    # generating value above one, so the moment route applies even with
    # zero drift
    rep = recover_exponential(ssrw_data)
    assert rep.detected_class == CLASS_EXPONENTIAL
    assert tv_distance(rep.recovered, ssrw) <= 1e-10


def test_recover_exponential_heavy_tail_refuses(p5_data):
    with pytest.raises(ClassNotDetected):
        recover_exponential(p5_data)


def test_recover_exponential_deep_negative_support():
    # ratio-statistic noise once drove the search past the true window
    # into an overfitted wide one; the nonnegative fit must stop at W=3
    mu = lattice(-3, [0.15, 0.0, 0.0, 0.0, 0.85])
    rep = recover_exponential(truncated_data(mu, 200))
    assert rep.diagnostics["negative_window"] == 3
    assert tv_distance(rep.recovered, mu) <= 1e-6


def test_recover_exponential_never_returns_bad_fit():
    # support reaches below every admissible window, so no distribution
    # can explain the transform data and the fit must refuse
    mu = lattice(-40, np.concatenate([[0.03], np.zeros(40), [0.97]]))
    with pytest.raises(ConditioningError):
        recover_exponential(truncated_data(mu, 200))


@pytest.mark.parametrize("horizon", [40, 120])
def test_recover_exponential_uniform_window(horizon):
    # P(S_n < 0) decays geometrically here, but the law is recovered
    # through its moment certificate like any other exponential member
    mu = uniform_window(-2, 3).dist
    rep = recover_exponential(truncated_data(mu, horizon))
    assert tv_distance(rep.recovered, mu) <= 1e-6


@pytest.mark.parametrize("top", [1, 2, 3, 4])
def test_recover_exponential_keeps_only_converged_probes(top):
    # probes whose last two ratios agree but whose last four do not have
    # not converged, and fitting them misplaces about 1e-6 to 2e-5 of mass
    mu = uniform_window(-4, top).dist
    rep = recover_exponential(truncated_data(mu, 40))
    assert tv_distance(rep.recovered, mu) <= 1e-6


@pytest.mark.parametrize("index", [7, 36, 57, 95])
def test_exponential_corpus_laws_recovered_within_class_tolerance(corpus100, index):
    # laws whose P(S_n < 0) has a geometric decay fit are recovered
    # through their moment certificate like the rest
    mu = corpus100[index]
    rep = auto_reconstruct(truncated_data(mu, 200))
    assert rep.detected_class == CLASS_EXPONENTIAL
    assert tv_distance(rep.recovered, mu) <= 1e-6


@pytest.mark.parametrize("down", [-45, -46])
def test_exponential_refuses_a_fit_that_drops_the_deficit(down):
    # both laws give bit-identical horizon-40 data; no negative window
    # inside the search carries the 0.1 deficit, and the empty window
    # must not be accepted without it
    mu = two_point(down, 1, 0.9).dist
    data = truncated_data(mu, 40)
    with pytest.raises(ConditioningError):
        recover_exponential(data)
    rep = auto_reconstruct(data)
    assert rep.detected_class == CLASS_NONE
    assert rep.recovered is None


def test_cm_detector_needs_positive_width():
    with pytest.raises(ClassNotDetected):
        recover_cm_discrete(truncated_data(lattice(-1, [0.6, 0.4]), 60))


def test_auto_reconstruct_narrow_positive_part():
    # the CM detector must bow out, not blow up, when the positive part
    # is too short for an atom fit
    mu = lattice(-1, [0.6, 0.4])
    rep = auto_reconstruct(truncated_data(mu, 200))
    assert rep.detected_class == CLASS_SKIP_FREE
    assert tv_distance(rep.recovered, mu) == 0.0


def test_recover_skipfree_symmetric():
    mu = lattice(-1, [0.5, 0.0, 0.5])
    rep = recover_skipfree(truncated_data(mu, 120))
    assert rep.detected_class == CLASS_SKIP_FREE
    assert rep.recovered.mass(-1) == 0.5
    assert tv_distance(rep.recovered, mu) == 0.0


def test_recover_skipfree_rejects_two_step_down():
    mu = lattice(-2, [0.5, 0.0, 0.0, 0.5])
    with pytest.raises(ClassNotDetected, match="forward powers"):
        recover_skipfree(truncated_data(mu, 120))


def test_recover_skipfree_accepts_drifting_walk():
    # the mass-deficit candidate is exact whatever the drift
    mu = lattice(-1, [0.2, 0.1, 0.3, 0.4])
    data = truncated_data(mu, 40)
    rep = recover_skipfree(data)
    assert rep.detected_class == CLASS_SKIP_FREE
    assert rep.diagnostics["drift"] == "drifts_plus"
    assert tv_distance(rep.recovered, mu) <= 1e-10
    rep = auto_reconstruct(data, detectors=["skip_free"])
    assert rep.detected_class == CLASS_SKIP_FREE


def _mean_sign(mu):
    mean = float(mu.indices() @ mu.weights)
    if abs(mean) <= MASS_TOL:
        return "oscillates"
    return "drifts_plus" if mean > 0.0 else "drifts_minus"


def _skipfree_law(weights, down, zero_mean):
    w = np.asarray(weights)
    k = np.arange(w.size)
    if zero_mean:
        # mass k @ w at -1 balances the positive part
        w = w / (w.sum() + k @ w)
        down = k @ w
    else:
        w = w * (1.0 - down) / w.sum()
    return lattice(-1, np.concatenate([[down], w]))


# mass at -1 and weights on 0..6, some laws built to have mean zero
_skipfree_laws = st.tuples(
    st.lists(st.just(0.0) | st.floats(0.01, 1.0), min_size=7, max_size=7).filter(
        lambda w: sum(w[1:]) > 0.0
    ),
    st.floats(0.05, 0.95),
    st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(_skipfree_laws, st.integers(2, 40))
def test_recover_skipfree_drift_is_sign_of_mean(law, horizon):
    weights, down, zero_mean = law
    mu = _skipfree_law(weights, down, zero_mean)
    rep = recover_skipfree(truncated_data(mu, horizon))
    assert rep.diagnostics["drift"] == _mean_sign(rep.recovered) == _mean_sign(mu)
    if zero_mean:
        assert rep.diagnostics["drift"] == "oscillates"


# an atom on 0..6 that is zero about 30% of the time
_maybe_zero_atom = st.tuples(st.integers(0, 9), st.floats(0.01, 1.0)).map(
    lambda t: 0.0 if t[0] < 3 else t[1]
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_maybe_zero_atom, min_size=7, max_size=7).filter(any),
    st.floats(0.02, 0.98),
    st.integers(2, 40),
)
def test_skipfree_law_round_trips_through_auto_reconstruct(weights, down, horizon):
    # criterion 4a's tolerance, on laws drawn rather than listed
    mu = _skipfree_law(weights, down, zero_mean=False)
    rep = auto_reconstruct(truncated_data(mu, horizon))
    assert rep.detected_class == CLASS_SKIP_FREE
    assert tv_distance(rep.recovered, mu) <= 1e-10


@pytest.mark.parametrize("detectors", ["skip_free", [], ()])
def test_auto_reconstruct_refuses_string_or_empty_detectors(detectors):
    with pytest.raises(DomainError, match="detectors must"):
        auto_reconstruct(truncated_data(delta(1), 10), detectors=detectors)


def test_recover_skipfree_refuted_by_second_power():
    # two_point(-2, 1, .85) and the skip-free candidate lattice(-1, [.15, 0, .85])
    # share r1, so only r2 can tell them apart
    mu = two_point(-2, 1, 0.85).dist
    data = truncated_data(mu, 2)
    candidate = lattice(-1, [0.15, 0.0, 0.85])
    forward = truncated_data(candidate, 2)
    assert sup_distance(forward.restricted_power(1), data.restricted_power(1)) == 0.0
    with pytest.raises(ClassNotDetected, match="forward powers"):
        recover_skipfree(data)
    r2_gap = sup_distance(forward.restricted_power(2), data.restricted_power(2))
    assert r2_gap > 0.1


def test_recover_skipfree_refuses_all_zero_data():
    # every law on the negative half-line gives these data, so delta(-1)
    # is not determined by them
    data = truncated_data(delta(-2), 10)
    with pytest.raises(ClassNotDetected, match="r1 is zero"):
        recover_skipfree(data)
    rep = auto_reconstruct(data)
    assert rep.detected_class == CLASS_NONE
    assert rep.recovered is None
    assert rep.diagnostics["detector_verdicts"]["skip_free"].startswith("not_detected")


def test_recover_skipfree_needs_two_powers_to_refute():
    data = truncated_data(two_point(-2, 1, 0.85).dist, 1)
    with pytest.raises(ClassNotDetected, match="cannot refute"):
        recover_skipfree(data)
    # with no deficit there is nothing to refute: the law is r1 itself
    mu = lattice(0, [0.5, 0.5])
    rep = recover_skipfree(truncated_data(mu, 1))
    assert rep.detected_class == CLASS_SKIP_FREE
    assert tv_distance(rep.recovered, mu) == 0.0


@pytest.mark.parametrize(
    "mu, walked",
    [
        (two_point(-2, 1, 0.85).dist, [2]),
        (power_tail_pair().dist, [2]),
        (lattice(-1, [0.5, 0.2, 0.1, 0.2]), [2, 40]),
    ],
    ids=["two_point", "power_tail_pair", "skip_free"],
)
def test_recover_skipfree_refutes_at_second_power_first(monkeypatch, mu, walked):
    # r2 refutes every refused candidate here: the N-step walk is for acceptance
    import whlab.reconstruct

    inner = whlab.reconstruct.truncated_data
    horizons = []

    def spy(law, horizon):
        horizons.append(horizon)
        return inner(law, horizon)

    data = truncated_data(mu, 40)
    monkeypatch.setattr(whlab.reconstruct, "truncated_data", spy)
    if walked == [2]:
        with pytest.raises(ClassNotDetected, match="forward powers"):
            recover_skipfree(data)
    else:
        assert recover_skipfree(data).detected_class == CLASS_SKIP_FREE
    assert horizons == walked


def test_correlation_lhs_positive_support_vanishes():
    data = truncated_data(lattice(1, [0.6, 0.4]), 6)
    assert np.max(np.abs(correlation_lhs_from_data(data))) <= 1e-15


def test_correlation_lhs_needs_two_powers():
    data = truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 1)
    with pytest.raises(DomainError, match="^correlation sequence needs horizon >= 2$"):
        correlation_lhs_from_data(data)


def test_correlation_lhs_keeps_boundary_term():
    # the j = 0 term of the two-sided sum survives when mass sits at 0
    mu = lattice(0, [0.3, 0.3, 0.4])
    b = correlation_lhs_from_data(truncated_data(mu, 6))
    for n in range(1, len(b) + 1):
        assert b[n - 1] == pytest.approx(mu.mass(0) * mu.mass(n), abs=1e-15)


def _loop_correlation_lhs(data):
    """b(n) one n at a time, reading r2 through LatticeDist.mass."""
    r1, r2 = data.restricted_power(1), data.restricted_power(2)
    length = max(r2.max_index if not r2.is_zero else 0, 1)
    top = 0 if r1.is_zero else r1.max_index
    pos = np.array([r1.mass(k) for k in range(top + 1)])
    auto = np.convolve(pos, pos)
    out = np.zeros(length)
    for n in range(1, length + 1):
        inner = auto[n] if n < len(auto) else 0.0
        boundary = 2.0 * pos[0] * pos[n] if n < len(pos) else 0.0
        out[n - 1] = 0.5 * (r2.mass(n) - (inner - boundary))
    return out


# windows inside [-5, 8] with interior zeros
_signed_laws = st.tuples(
    st.integers(-5, 0), st.lists(st.just(0.0) | st.floats(0.01, 1.0), min_size=1, max_size=9)
).filter(lambda t: sum(t[1]) > 0.0).map(lambda t: lattice(t[0], np.asarray(t[1]) / sum(t[1])))


@settings(max_examples=100, deadline=None)
@given(_signed_laws, st.sampled_from([2, 5]))
def test_correlation_lhs_matches_loop_form(mu, horizon):
    data = truncated_data(mu, horizon)
    assert np.array_equal(correlation_lhs_from_data(data), _loop_correlation_lhs(data))


@pytest.mark.parametrize(
    "r1, r2",
    [
        (lattice(0, [0.5]), zero_measure()),
        (lattice(0, [0.3, 0.2]), lattice(0, [0.4])),
        (zero_measure(), lattice(2, [0.1, 0.0, 0.2])),
    ],
)
def test_correlation_lhs_matches_loop_form_on_short_powers(r1, r2):
    data = data_from_powers([r1, r2])
    assert np.array_equal(correlation_lhs_from_data(data), _loop_correlation_lhs(data))


def test_correlation_lhs_three_point():
    mu = lattice(-1, [1 / 3, 1 / 3, 1 / 3])
    data = truncated_data(mu, 6)
    b = correlation_lhs_from_data(data)
    assert b[0] == pytest.approx(1 / 9, abs=1e-15)
    for n in range(1, len(b) + 1):
        assert b[n - 1] == pytest.approx(cross_correlation_direct(mu, n), abs=1e-12)


def test_correlation_lhs_heavy_tail_value(p5_dist, p5_data):
    from scipy.special import zeta

    c = float(zeta(3, 4))
    b = correlation_lhs_from_data(p5_data)
    assert b[1] == pytest.approx(((1.0 - c) / 2.0) / 64.0, rel=1e-12)


def test_power_tail_pair_tail_mass_is_scipy_zeta():
    # the generator holds zeta(3, 4) as a literal so that it loads no scipy
    from scipy.special import zeta

    from whlab import generators

    assert generators._ZETA_3_4 == float(zeta(3, 4))


def test_correlation_inverse_point_kernel_flagged():
    sol = correlation_inverse(delta(0), np.zeros(8), deficit=0.3)
    assert sol.rank_deficient


def test_correlation_inverse_single_geometric_flagged():
    k = np.arange(40)
    kernel = lattice(0, 0.2 * 0.6**k)
    x = {1: 0.3, 2: 0.2}
    b = np.array([sum(w * kernel.mass(n + j) for j, w in x.items()) for n in range(1, 16)])
    sol = correlation_inverse(kernel, b, deficit=0.5)
    assert sol.rank_deficient
    assert sum(sol.masses) == pytest.approx(0.5, abs=1e-8)


def test_correlation_inverse_two_geometrics_full_rank():
    k = np.arange(60)
    kernel = lattice(0, 0.21 * 0.3**k + 0.08 * 0.6**k)
    x = {1: 0.3, 2: 0.2}
    b = np.array([sum(w * kernel.mass(n + j) for j, w in x.items()) for n in range(1, 21)])
    sol = correlation_inverse(kernel, b, deficit=0.5)
    assert not sol.rank_deficient
    got = dict(enumerate(sol.masses, start=1))
    assert got.get(1, 0.0) == pytest.approx(0.3, abs=1e-8)
    assert got.get(2, 0.0) == pytest.approx(0.2, abs=1e-8)


def test_correlation_inverse_negative_deficit_rejected():
    with pytest.raises(DataInconsistencyError):
        correlation_inverse(delta(0), np.zeros(4), deficit=-0.01)


@pytest.mark.parametrize(
    "kernel, b, message",
    [
        (zero_measure(), [0.1], "kernel must be nonzero"),
        (lattice(-1, [0.5, 0.5]), [0.1], "kernel must live on the nonnegative lattice"),
        (delta(0), [], "empty correlation sequence"),
        (delta(0), [[0.1, 0.2]], "correlation sequence must be a 1-d sequence"),
        (delta(0), [0.1, np.nan], "non-finite correlation sequence entry nan at index 1"),
        (delta(0), ["x"], "correlation sequence must be numbers"),
    ],
)
def test_correlation_inverse_refuses_bad_input(kernel, b, message):
    with pytest.raises(DomainError, match=message):
        correlation_inverse(kernel, b, deficit=0.3)


@pytest.mark.parametrize("deficit", [np.nan, np.inf, -np.inf, "x", None])
def test_correlation_inverse_refuses_a_non_finite_deficit(deficit):
    with pytest.raises(DomainError, match="mass deficit must be finite"):
        correlation_inverse(delta(0), [0.1], deficit)


def test_correlation_inverse_without_a_fit_returns_the_widest_window():
    # no nonnegative masses can match a negative b: every window misses,
    # and the widest window's solve is returned, not raised
    sol = correlation_inverse(lattice(0, [0.5, 0.3, 0.2]), [-0.1] * 3, deficit=0.5)
    assert sol.masses.tolist() == [0.0, 0.5, 0.0]
    assert sol.residual_sup == pytest.approx(0.1, abs=1e-15)
    assert sol.rank == 1
    assert sol.rank_deficient


def test_cm_single_geometric_tail():
    # positive part 0.4 * 0.5**k, all remaining mass at -1
    mu = lattice(-1, np.concatenate([[0.2], 0.4 * 0.5 ** np.arange(140)]))
    data = truncated_data(mu, 40)
    rep = recover_cm_discrete(data)
    assert rep.detected_class == CLASS_DISCRETE_CM
    assert tv_distance(rep.recovered, mu) <= 1e-6
    assert rep.recovered.mass(-1) == pytest.approx(0.2, abs=1e-6)


def test_cm_two_atom_mixture():
    gen = geometric_mixture((0.3, 0.7), (0.45, 0.55))
    data = truncated_data(gen.dist, 60)
    rep = recover_cm_discrete(data)
    assert rep.detected_class == CLASS_DISCRETE_CM
    assert tv_distance(rep.recovered, gen.dist) <= 1e-4


@pytest.mark.parametrize("horizon", [2, 40])
def test_cm_refuses_a_fit_with_a_residual_above_tolerance(horizon):
    data = cm_unsolved_data(horizon)
    with pytest.raises(ClassNotDetected, match="leaves a residual of 0.0613$"):
        recover_cm_discrete(data)
    rep = auto_reconstruct(data)
    assert rep.detected_class == CLASS_NONE
    assert rep.diagnostics["detector_verdicts"]["discrete_cm"].startswith("not_detected")


@pytest.mark.parametrize("horizon", [2, 40])
def test_cm_refuses_a_solved_system_at_deficient_rank(horizon):
    # a window as deep as the law solves the system, but at rank 3 of 4
    data = truncated_data(cm_shallow_window_law(), horizon)
    with pytest.raises(ConditioningError, match=r"\(rank 3 of 4 lags\)"):
        recover_cm_discrete(data)
    rep = auto_reconstruct(data)
    assert rep.detected_class == CLASS_NONE
    assert rep.diagnostics["detector_verdicts"]["discrete_cm"].startswith("failed")


def _cm_three_atom_law():
    # the first window with a residual of 7.8e-7 is not a solve; the next,
    # as deep as the law, solves the system to 1.8e-13 at full rank
    c = np.array([0.6, 0.65, 0.75])
    w = np.array([0.43, 0.17, 0.40])
    k = np.arange(147)
    p = (w[:, None] * (1.0 - c[:, None]) * c[:, None] ** k).sum(axis=0)
    return lattice(-3, np.concatenate([[0.01, 0.4, 0.28], 0.31 * p / p.sum()]))


@pytest.mark.parametrize("horizon", [2, 40])
def test_cm_recovers_at_the_first_window_within_consistency_tol(horizon):
    mu = _cm_three_atom_law()
    data = truncated_data(mu, horizon)
    rep = auto_reconstruct(data)
    assert rep.detected_class == CLASS_DISCRETE_CM
    assert rep.diagnostics["window"] == 3
    assert rep.residuals["system_residual"] <= CONSISTENCY_TOL
    assert tv_distance(rep.recovered, mu) <= 1e-8
    # every narrower window leaves a residual above CONSISTENCY_TOL
    pos = _dense_r1(data.restricted_power(1))
    b = correlation_lhs_from_data(data)[: len(pos) - 1]
    b_tilde = b - pos[0] * pos[1 : len(b) + 1]
    deficit = 1.0 - data.restricted_power(1).total
    design = _kernel_design(data.restricted_power(1), len(b_tilde), range(1, 3))
    for w in (1, 2):
        sol = _correlation_solve(design[:, :w], b_tilde, deficit)
        assert sol.residual_sup > CONSISTENCY_TOL


def test_cm_seeded_sweep_hits_are_recoveries():
    # random laws with a completely monotone positive part: every law the
    # detector accepts must be the truth, and enough of them are accepted
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(400):
        depth = int(rng.integers(1, 5))
        n_atoms = int(rng.integers(1, 4))
        c = rng.uniform(0.05, 0.95, n_atoms)
        w = rng.dirichlet(np.ones(n_atoms))
        k = np.arange(int(rng.integers(40, 251)))
        p = (w[:, None] * (1.0 - c[:, None]) * c[:, None] ** k).sum(axis=0)
        pos_mass = float(rng.uniform(0.2, 0.9))
        neg = (1.0 - pos_mass) * rng.dirichlet(np.ones(depth))
        mu = lattice(-depth, np.concatenate([neg, pos_mass * p / p.sum()]))
        data = truncated_data(mu, int(rng.choice([2, 5, 40, 120])))
        try:
            rep = recover_cm_discrete(data)
        except (ClassNotDetected, ConditioningError):
            continue
        hits += 1
        assert tv_distance(rep.recovered, mu) <= 1e-4
        assert rep.residuals["system_residual"] <= CONSISTENCY_TOL
    assert hits >= 100


def test_cm_gate_rejects_sign_changing_differences():
    mu = lattice(0, [0.5, 0.5])
    with pytest.raises(ClassNotDetected):
        recover_cm_discrete(truncated_data(mu, 20))


def test_triangular_heavy_tail_pair(p5_dist, p5_data):
    rep = recover_triangular(p5_data)
    assert rep.detected_class == CLASS_TRIANGULAR
    assert rep.diagnostics["a"] == 1 and rep.diagnostics["b"] == 3
    assert abs(rep.recovered.mass(-2) - p5_dist.mass(-2)) <= 1e-8
    assert abs(rep.recovered.mass(-1) - p5_dist.mass(-1)) <= 1e-8
    assert rep.residuals["unassigned_mass"] <= 2e-5


def test_triangular_rejects_delta1_with_declared_a():
    # a = 1 is read off the data, leaving b = 0 below the required 2
    with pytest.raises(ClassNotDetected):
        recover_triangular(truncated_data(delta(1), 10))


def test_triangular_synthetic_exact():
    mu = lattice(-1, [0.1, 0, 0, 0, 0, 0.9])
    rep = recover_triangular(truncated_data(mu, 30))
    assert rep.detected_class == CLASS_TRIANGULAR
    assert rep.diagnostics["a"] == 2 and rep.diagnostics["b"] == 2
    assert tv_distance(rep.recovered, mu) <= 1e-14


def test_triangular_inconsistent_data_rejected():
    mu = lattice(-2, [0.1, 0.15, 0, 0, 0, 0, 0.6, 0.15])
    data = truncated_data(mu, 30)
    # lower the second-power mass feeding the solve so the recovered
    # mass would come out negative
    r2 = data.restricted_power(2)
    w = r2.weights.copy()
    w[3 - r2.min_index] = 0.02
    tampered = list(data.restricted)
    tampered[1] = lattice(r2.min_index, w)
    bad = data_from_powers(tampered)
    with pytest.raises(DataInconsistencyError):
        recover_triangular(bad)


def test_triangular_short_correlation_sequence_not_detected():
    # a = 0, b = 3 needs rows b(1) and b(2); r2 on 0..1 gives only b(1)
    data = TruncatedData(2, [[0, 0, 0, 0.9], [0, 0.3, 0, 0]])
    with pytest.raises(ClassNotDetected, match="correlation sequence too short"):
        recover_triangular(data)


def test_triangular_refuses_a_tiny_mass_before_a_short_sequence():
    # the one row it has solves mass -2 to 8.3e-13, refused first
    data = TruncatedData(2, [[0, 0, 0, 0.9], [0, 1.5e-12, 0, 0]])
    with pytest.raises(DataInconsistencyError, match="nonpositive mass 8.33333e-13 at -2"):
        recover_triangular(data)


@pytest.mark.parametrize("n_rhs, n_coef", [(1, 1), (1, 4), (7, 3), (12, 12), (5, 20), (40, 9)])
def test_back_substitution_keeps_the_scalar_loops_bits(n_rhs, n_coef):
    rng = np.random.default_rng(n_rhs * 100 + n_coef)
    for _ in range(50):
        rhs = rng.uniform(-1.0, 1.0, n_rhs) * 10.0 ** rng.integers(-8, 1, n_rhs)
        coef = rng.uniform(0.0, 1.0, n_coef) * 10.0 ** rng.integers(-6, 1, n_coef)
        coef[0] = rng.uniform(0.05, 1.0)
        np.testing.assert_array_equal(_back_substitute(rhs, coef), back_substitute(rhs, coef))


def test_extend_by_delta0_is_identity():
    data = truncated_data(lattice(-1, [0.4, 0.1, 0.5]), 10)
    out = extend_by_negative(data, delta(0))
    for n in range(1, 11):
        assert sup_distance(out.restricted_power(n), data.restricted_power(n)) == 0.0


def test_extend_by_delta_minus1_shifts():
    data = truncated_data(lattice(-1, [0.4, 0.1, 0.5]), 10)
    out = extend_by_negative(data, delta(-1))
    for n in range(1, 11):
        shifted = out.restricted_power(n)
        original = data.restricted_power(n)
        top = original.max_index if not original.is_zero else 0
        for k in range(0, max(top - n, 0) + 1):
            assert shifted.mass(k) == pytest.approx(original.mass(k + n), abs=1e-15)


def test_extend_matches_forward_oracle():
    mu = lattice(-1, [0.3, 0.2, 0.5])
    nu = lattice(-1, [0.5, 0.5])
    data = truncated_data(mu, 12)
    out = extend_by_negative(data, nu)
    oracle = truncated_data(convolve(mu, nu), 12)
    for n in range(1, 13):
        assert sup_distance(out.restricted_power(n), oracle.restricted_power(n)) <= 1e-14


def test_extend_rejects_improper_nu():
    data = truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 5)
    with pytest.raises(DomainError, match="nu must be proper"):
        extend_by_negative(data, lattice(-2, [0.3, 0.3]))


def test_extend_rejects_positive_support():
    data = truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 5)
    with pytest.raises(DomainError):
        extend_by_negative(data, lattice(0, [0.5, 0.5]))


def test_extend_rejects_the_zero_measure():
    data = truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 5)
    with pytest.raises(DomainError, match="^nu must be a proper distribution$"):
        extend_by_negative(data, zero_measure())


def test_deconvolution_rejects_positive_support():
    data = truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 5)
    with pytest.raises(DomainError, match="^nu must be nonzero on the nonpositive lattice$"):
        deconvolve_extension(data, delta(1))


@pytest.mark.parametrize("nu_weights,nu_offset", [((1.0,), -1), ((0.5, 0.5), -1)])
def test_deconvolution_recovers_first_power(nu_weights, nu_offset):
    mu = lattice(-2, [0.15, 0.2, 0.25, 0.1, 0.3])
    nu = lattice(nu_offset, list(nu_weights))
    data = truncated_data(mu, 10)
    extended = extend_by_negative(data, nu)
    dec = deconvolve_extension(extended, nu)
    assert dec.stable
    assert dec.determined_from == 0
    assert sup_distance(dec.r1, data.restricted_power(1)) <= 1e-10


@pytest.mark.parametrize(
    "nu", [delta(-2), delta(-3), lattice(-4, [0.2, 0.0, 0.8])], ids=["d-2", "d-3", "gapped-2"]
)
def test_deconvolution_fills_a_head_of_several_masses(nu):
    # a top gap g leaves r1(0..g-1) to be read from r2, which needs top >= 2g
    mu = lattice(-2, [0.1, 0.05, 0.1, 0.15, 0.2, 0.05, 0.1, 0.15, 0.1])
    for horizon in (2, 4):
        data = truncated_data(mu, horizon)
        dec = deconvolve_extension(extend_by_negative(data, nu), nu)
        assert dec.stable
        assert dec.determined_from == 0
        assert sup_distance(dec.r1, data.restricted_power(1)) <= 1e-15


def test_deconvolution_honest_about_undetermined_head():
    # support topping at 1 collapses the shifted data to the sequence
    # mu(1)**n, so two walks differing only below 1 are indistinguishable
    # and the frontier must stay at 1
    nu = delta(-1)
    data_a = truncated_data(lattice(-2, [0.2, 0.3, 0.1, 0.4]), 8)
    data_b = truncated_data(lattice(-2, [0.1, 0.4, 0.1, 0.4]), 8)
    ext_a = extend_by_negative(data_a, nu)
    ext_b = extend_by_negative(data_b, nu)
    for n in range(1, 9):
        assert sup_distance(ext_a.restricted_power(n), ext_b.restricted_power(n)) == 0.0
    dec = deconvolve_extension(ext_a, nu)
    assert dec.determined_from == 1
    assert dec.r1.mass(1) == pytest.approx(0.4, abs=1e-15)


@pytest.mark.parametrize(
    "r2_weights",
    [[0.05, 0.0, 0.0], [0.01, 0.02, 0.0]],
    ids=["r2_too_short", "negative_head"],
)
def test_deconvolution_keeps_the_frontier_when_r2_cannot_fill_the_head(r2_weights):
    # delta(-1) leaves r1(0) to be read from r2; an r2 that stops below
    # top + gap - 1, or one that gives r1(0) < 0, leaves the frontier at 1
    data = TruncatedData(2, [[0.2, 0.3, 0.1], r2_weights])
    dec = deconvolve_extension(data, delta(-1))
    assert dec.determined_from == 1
    assert dec.stable
    assert (dec.r1.min_index, dec.r1.max_index) == (1, 3)


def test_deconvolution_flags_unstable_first_power():
    # dividing by nu = 0.9 delta(-1) + 0.1 delta(0) from the top multiplies
    # roundoff by 9 per index, which pushes r1 out of [0, 1]
    nu = lattice(-1, [0.9, 0.1])
    extended = extend_by_negative(truncated_data(power_tail_pair().dist, 2), nu)
    dec = deconvolve_extension(extended, nu)
    assert dec.stable is False
    assert dec.r1.is_zero


def test_deconvolution_refuses_a_vanishing_pivot():
    # the top of nu * nu (1e-340) underflows to nothing, and dividing by
    # the 1e-170 top of nu amplifies roundoff far past the range slack
    nu = lattice(-2, [1.0, 1e-170])
    for mu in random_corpus(30):
        r1 = truncated_data(mu, 1).restricted_power(1)
        for horizon in (2, 5):
            extended = extend_by_negative(truncated_data(mu, horizon), nu)
            dec = deconvolve_extension(extended, nu)
            if dec.stable:
                top = max(r1.max_index, dec.r1.max_index)
                for k in range(dec.determined_from, top + 1):
                    assert abs(dec.r1.mass(k) - r1.mass(k)) <= 1e-8


def test_deconvolution_at_horizon_one_keeps_the_frontier():
    # the head below the frontier needs r2, which horizon-1 data lack
    mu = lattice(-2, [0.15, 0.2, 0.25, 0.1, 0.3])
    data = truncated_data(mu, 1)
    dec = deconvolve_extension(extend_by_negative(data, delta(-1)), delta(-1))
    assert dec.stable
    assert dec.determined_from == 1
    assert dec.r1.offset == 1
    assert np.array_equal(dec.r1.weights, data.restricted_power(1).weights[1:])


def test_auto_reconstruct_delta1():
    rep = auto_reconstruct(truncated_data(delta(1), 60))
    assert rep.detected_class == CLASS_SKIP_FREE
    assert tv_distance(rep.recovered, delta(1)) <= 1e-12


def test_auto_reconstruct_heavy_tail_is_triangular(p5_dist, p5_data):
    rep = auto_reconstruct(p5_data)
    assert rep.detected_class == CLASS_TRIANGULAR
    verdicts = rep.diagnostics["detector_verdicts"]
    assert set(verdicts) == {"exponential", "skip_free", "triangular", "discrete_cm"}
    assert verdicts["triangular"].startswith("detected")


def test_auto_reconstruct_cm_mixture():
    # shift -1 would make the mixture skip-free
    gen = geometric_mixture((0.3, 0.7), (0.45, 0.55), shift=-2)
    rep = auto_reconstruct(truncated_data(gen.dist, 60))
    assert rep.detected_class == CLASS_DISCRETE_CM
    assert tv_distance(rep.recovered, gen.dist) <= 1e-4


@pytest.mark.parametrize(
    "atoms, atom_weights, shift", [((0.3, 0.5), (0.5, 0.5), -3), ((0.4,), (1.0,), -2)]
)
def test_cm_rank_deficient_direct_route_is_not_a_recovery(atoms, atom_weights, shift):
    # the correlation design here is too narrow to determine the masses;
    # its answer was off by up to tv 4.5e-2
    mu = geometric_mixture(atoms, atom_weights, shift=shift).dist
    data = truncated_data(mu, 40)
    with pytest.raises(ConditioningError, match="rank-deficient"):
        recover_cm_discrete(data)
    rep = auto_reconstruct(data)
    assert rep.detected_class == CLASS_NONE
    assert rep.diagnostics["detector_verdicts"]["discrete_cm"].startswith("failed")


def test_auto_reconstruct_exact_class_outranks_exponential(ssrw, ssrw_data):
    rep = auto_reconstruct(ssrw_data)
    assert rep.detected_class == CLASS_SKIP_FREE
    assert tv_distance(rep.recovered, ssrw) == 0.0


def test_auto_reconstruct_runs_exponential_once_on_drifting_data(monkeypatch):
    import whlab.reconstruct

    calls = []
    inner = whlab.reconstruct.exp_moment_conditions

    def spy(data):
        calls.append(data)
        return inner(data)

    monkeypatch.setattr(whlab.reconstruct, "exp_moment_conditions", spy)
    rep = auto_reconstruct(truncated_data(two_point(-2, 1, 0.85).dist, 40))
    assert rep.detected_class == CLASS_EXPONENTIAL
    assert len(calls) == 1
    verdicts = rep.diagnostics["detector_verdicts"]
    assert verdicts["skip_free"].startswith("not_detected")


def test_recovered_agrees_with_first_power():
    cases = [
        truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 80),
        truncated_data(lattice(-1, [0.2, 0.0, 0.8]), 80),
        truncated_data(geometric_mixture((0.5,), (1.0,)).dist, 40),
    ]
    for data in cases:
        rep = auto_reconstruct(data)
        assert rep.detected_class != CLASS_NONE
        r1 = data.restricted_power(1)
        top = max(r1.max_index, rep.recovered.max_index)
        for k in range(0, top + 1):
            assert rep.recovered.mass(k) == r1.mass(k)


@pytest.mark.parametrize(
    "detectors, message",
    [
        (["nope"], "unknown detector 'nope'"),
        ("skip_free", "detectors must be a collection of names, not 'skip_free'"),
        ([], "detectors must name at least one of"),
        (5, "detectors must be a collection of names, not 5"),
    ],
)
def test_auto_reconstruct_refuses_bad_detector_lists(ssrw_data, detectors, message):
    with pytest.raises(DomainError, match=message):
        auto_reconstruct(ssrw_data, detectors)


def test_triangular_refuses_interior_zeros():
    data = TruncatedData(2, [[0, 0, 0, 0.3, 0, 0.2], [0, 0, 0.1, 0, 0, 0]])
    with pytest.raises(ClassNotDetected, match="positive support has interior zeros"):
        recover_triangular(data)


# each detector's nnls call, with the law and horizon that reach it
NNLS_CASES = {
    "exponential": (recover_exponential, two_point(-2, 1, 0.8).dist, 40),
    "discrete_cm": (
        recover_cm_discrete,
        geometric_mixture((0.3, 0.5), (0.5, 0.5), shift=-2).dist,
        80,
    ),
}


@pytest.mark.parametrize("name", sorted(NNLS_CASES))
def test_nnls_failure_is_a_conditioning_error(monkeypatch, name):
    import scipy.optimize

    detector, mu, horizon = NNLS_CASES[name]
    data = truncated_data(mu, horizon)

    def failing_nnls(*args, **kwargs):
        raise RuntimeError("too many iterations")

    monkeypatch.setattr(scipy.optimize, "nnls", failing_nnls)
    with pytest.raises(ConditioningError, match="nonnegative solver failed: too many iterations"):
        detector(data)
    verdict = auto_reconstruct(data).diagnostics["detector_verdicts"][name]
    assert verdict.startswith("failed: nonnegative solver failed: too many iterations")
