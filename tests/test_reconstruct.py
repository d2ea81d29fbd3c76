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
from whlab.ladder import Drift
from whlab.lattice import cross_correlation_direct, sup_distance


def test_recover_exponential_delta1():
    rep = recover_exponential(truncated_data(delta(1), 60), truth=delta(1))
    assert rep.detected_class == CLASS_EXPONENTIAL
    assert rep.residuals["tv_distance"] <= 1e-12


def test_recover_exponential_two_point_drift():
    mu = lattice(-1, [0.2, 0.0, 0.8])
    rep = recover_exponential(truncated_data(mu, 200), truth=mu)
    assert rep.detected_class == CLASS_EXPONENTIAL
    assert rep.residuals["tv_distance"] <= 1e-6


def test_recover_exponential_bounded_support_zero_mean(ssrw, ssrw_data):
    # bounded support away from delta_0 always carries a finite moment
    # generating value above one, so the moment route applies even with
    # zero drift
    rep = recover_exponential(ssrw_data, truth=ssrw)
    assert rep.detected_class == CLASS_EXPONENTIAL
    assert rep.residuals["tv_distance"] <= 1e-10


def test_recover_exponential_heavy_tail_refuses(p5_data):
    with pytest.raises(ClassNotDetected):
        recover_exponential(p5_data)


def test_recover_exponential_deep_negative_support():
    # ratio-statistic noise once drove the search past the true window
    # into an overfitted wide one; the nonnegative fit must stop at W=3
    mu = lattice(-3, [0.15, 0.0, 0.0, 0.0, 0.85])
    rep = recover_exponential(truncated_data(mu, 200), truth=mu)
    assert rep.diagnostics["negative_window"] == 3
    assert rep.residuals["tv_distance"] <= 1e-6


def test_recover_exponential_never_returns_bad_fit():
    # support reaches below every admissible window, so no distribution
    # can explain the transform data and the fit must refuse
    mu = lattice(-40, np.concatenate([[0.03], np.zeros(40), [0.97]]))
    with pytest.raises(ConditioningError):
        recover_exponential(truncated_data(mu, 200), truth=mu)


@pytest.mark.parametrize("horizon", [40, 120])
def test_recover_exponential_falls_back_to_moment_route(horizon):
    # a decay rate is fitted but the ratio statistic never stabilizes on
    # the characteristic grid; the moment certificate still recovers
    mu = uniform_window(-2, 3).dist
    rep = recover_exponential(truncated_data(mu, horizon), truth=mu)
    assert rep.diagnostics["alpha"] is not None
    assert rep.diagnostics["route"] == "mgf"
    assert rep.residuals["tv_distance"] <= 1e-6


def test_cm_detector_needs_positive_width():
    with pytest.raises(ClassNotDetected):
        recover_cm_discrete(truncated_data(lattice(-1, [0.6, 0.4]), 60))


def test_auto_reconstruct_narrow_positive_part():
    # the CM detector must bow out, not blow up, when the positive part
    # is too short for an atom fit
    mu = lattice(-1, [0.6, 0.4])
    rep = auto_reconstruct(truncated_data(mu, 200), truth=mu)
    assert rep.detected_class == CLASS_SKIP_FREE
    assert rep.residuals["tv_distance"] == 0.0


def test_recover_skipfree_symmetric():
    mu = lattice(-1, [0.5, 0.0, 0.5])
    rep = recover_skipfree(truncated_data(mu, 120), truth=mu)
    assert rep.detected_class == CLASS_SKIP_FREE
    assert rep.recovered.mass(-1) == 0.5
    assert rep.residuals["tv_distance"] == 0.0


def test_recover_skipfree_rejects_two_step_down():
    mu = lattice(-2, [0.5, 0.0, 0.0, 0.5])
    rep = recover_skipfree(truncated_data(mu, 120), truth=mu)
    assert rep.detected_class == CLASS_NONE
    assert "reject_reason" in rep.diagnostics


def test_recover_skipfree_accepts_drifting_walk():
    # the mass-deficit candidate is exact whatever the drift
    mu = lattice(-1, [0.2, 0.1, 0.3, 0.4])
    data = truncated_data(mu, 40)
    rep = recover_skipfree(data, truth=mu)
    assert rep.detected_class == CLASS_SKIP_FREE
    assert rep.diagnostics["drift"] is Drift.PLUS
    assert rep.residuals["tv_distance"] <= 1e-10
    rep = auto_reconstruct(data, detectors=["skip_free"])
    assert rep.detected_class == CLASS_SKIP_FREE


def test_recover_skipfree_refuted_by_second_power():
    # two_point(-2, 1, .85) and the skip-free candidate lattice(-1, [.15, 0, .85])
    # share r1, so only r2 can tell them apart
    mu = two_point(-2, 1, 0.85).dist
    data = truncated_data(mu, 2)
    candidate = lattice(-1, [0.15, 0.0, 0.85])
    forward = truncated_data(candidate, 2)
    assert sup_distance(forward.restricted_power(1), data.restricted_power(1)) == 0.0
    rep = recover_skipfree(data)
    assert rep.detected_class == CLASS_NONE
    assert rep.residuals["deficit"] == pytest.approx(0.15, abs=1e-15)
    r2_gap = sup_distance(forward.restricted_power(2), data.restricted_power(2))
    assert rep.residuals["consistency_sup"] == r2_gap > 0.1


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
    rep = recover_skipfree(truncated_data(mu, 1), truth=mu)
    assert rep.detected_class == CLASS_SKIP_FREE
    assert rep.residuals["tv_distance"] == 0.0


def test_skipfree_identity_holds_within_truncation_band():
    # zero drift and skip-free downward: v == 1, up to the mass the DP
    # still carries alive at the horizon
    mu = lattice(-1, [0.6, 0.1, 0.1, 0.1, 0.1])
    rep = recover_skipfree(truncated_data(mu, 200))
    diag = rep.diagnostics
    assert diag["v_rank"] == 2
    assert diag["v_rank_deficient"] is False
    assert 0.0 < diag["v_identity_dev"] <= diag["v_band"] < 0.05


def test_correlation_lhs_positive_support_vanishes():
    data = truncated_data(lattice(1, [0.6, 0.4]), 6)
    assert np.max(np.abs(correlation_lhs_from_data(data))) <= 1e-15


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
    data = TruncatedData(2, (r1, r2))
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
    got = dict(zip(sol.lags, sol.masses))
    assert got.get(1, 0.0) == pytest.approx(0.3, abs=1e-8)
    assert got.get(2, 0.0) == pytest.approx(0.2, abs=1e-8)


def test_correlation_inverse_negative_deficit_rejected():
    with pytest.raises(DataInconsistencyError):
        correlation_inverse(delta(0), np.zeros(4), deficit=-0.01)


def test_cm_single_geometric_tail():
    # positive part 0.4 * 0.5**k, all remaining mass at -1
    mu = lattice(-1, np.concatenate([[0.2], 0.4 * 0.5 ** np.arange(140)]))
    data = truncated_data(mu, 40)
    rep = recover_cm_discrete(data, truth=mu)
    assert rep.detected_class == CLASS_DISCRETE_CM
    assert rep.residuals["tv_distance"] <= 1e-6
    assert rep.recovered.mass(-1) == pytest.approx(0.2, abs=1e-6)


def test_cm_two_atom_mixture():
    gen = geometric_mixture((0.3, 0.7), (0.45, 0.55))
    data = truncated_data(gen.dist, 60)
    rep = recover_cm_discrete(data, truth=gen.dist)
    assert rep.detected_class == CLASS_DISCRETE_CM
    nodes = sorted(node for node, _ in rep.diagnostics["atoms"])
    assert np.allclose(nodes, [0.3, 0.7], atol=1e-3)
    assert rep.residuals["tv_distance"] <= 1e-4


def test_cm_gate_rejects_sign_changing_differences():
    mu = lattice(0, [0.5, 0.5])
    with pytest.raises(ClassNotDetected):
        recover_cm_discrete(truncated_data(mu, 20))


def test_triangular_heavy_tail_pair(p5_dist, p5_data):
    rep = recover_triangular(p5_data, truth=p5_dist)
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
    rep = recover_triangular(truncated_data(mu, 30), truth=mu)
    assert rep.detected_class == CLASS_TRIANGULAR
    assert rep.diagnostics["a"] == 2 and rep.diagnostics["b"] == 2
    assert rep.residuals["tv_distance"] <= 1e-14


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
    bad = TruncatedData(data.horizon, tuple(tampered))
    with pytest.raises(DataInconsistencyError):
        recover_triangular(bad)


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


def test_extend_rejects_positive_support():
    data = truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 5)
    with pytest.raises(DomainError):
        extend_by_negative(data, lattice(0, [0.5, 0.5]))


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


def test_deconvolution_flags_unstable_first_power():
    # dividing by nu = 0.9 delta(-1) + 0.1 delta(0) from the top multiplies
    # roundoff by 9 per index, which pushes r1 out of [0, 1]
    nu = lattice(-1, [0.9, 0.1])
    extended = extend_by_negative(truncated_data(power_tail_pair().dist, 2), nu)
    dec = deconvolve_extension(extended, nu)
    assert dec.stable is False
    assert dec.r1.is_zero


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
    rep = auto_reconstruct(truncated_data(delta(1), 60), truth=delta(1))
    assert rep.detected_class == CLASS_SKIP_FREE
    assert rep.residuals["tv_distance"] <= 1e-12


def test_auto_reconstruct_heavy_tail_is_triangular(p5_dist, p5_data):
    rep = auto_reconstruct(p5_data, truth=p5_dist)
    assert rep.detected_class == CLASS_TRIANGULAR
    verdicts = rep.diagnostics["detector_verdicts"]
    assert set(verdicts) == {"exponential", "skip_free", "triangular", "discrete_cm"}
    assert verdicts["triangular"].startswith("detected")


def test_auto_reconstruct_cm_mixture():
    # shift -1 would make the mixture skip-free
    gen = geometric_mixture((0.3, 0.7), (0.45, 0.55), shift=-2)
    rep = auto_reconstruct(truncated_data(gen.dist, 60), truth=gen.dist)
    assert rep.detected_class == CLASS_DISCRETE_CM
    assert rep.residuals["tv_distance"] <= 1e-4


@pytest.mark.parametrize(
    "atoms, atom_weights, shift", [((0.3, 0.5), (0.5, 0.5), -3), ((0.4,), (1.0,), -2)]
)
def test_cm_rank_deficient_direct_route_is_not_a_recovery(atoms, atom_weights, shift):
    # the direct kernel inversion wins here with a design too narrow to
    # determine the masses; its answer was off by up to tv 4.5e-2
    mu = geometric_mixture(atoms, atom_weights, shift=shift).dist
    data = truncated_data(mu, 40)
    with pytest.raises(ConditioningError, match="rank-deficient"):
        recover_cm_discrete(data, truth=mu)
    rep = auto_reconstruct(data, truth=mu)
    assert rep.detected_class == CLASS_NONE
    assert rep.diagnostics["detector_verdicts"]["discrete_cm"].startswith("failed")


def test_auto_reconstruct_exact_class_outranks_exponential(ssrw, ssrw_data):
    rep = auto_reconstruct(ssrw_data, truth=ssrw)
    assert rep.detected_class == CLASS_SKIP_FREE
    assert rep.residuals["tv_distance"] == 0.0


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

