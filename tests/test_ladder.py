"""Ladder laws, Wiener-Hopf factors, and the drift/moment diagnostics."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import whlab.ladder
from whlab import (
    TruncatedData,
    chi_eval_grid,
    delta,
    drift_classify,
    eval_transform,
    convolve,
    exp_moment_conditions,
    ladder_law,
    lattice,
    neg_prob_sequence,
    spitzer_chi_grid,
    split_nonneg,
    truncated_data,
    two_point,
    verify_factorization,
)
from whlab.errors import DomainError
from whlab.ladder import DOWNWARD, UPWARD, Drift, default_lambda_grid
from whlab.lattice import _half_line_walk, zero_measure
from whlab.reconstruct import _STAB_TOL, _mgf_ratio_points

S_GRID = np.arange(0.1, 0.95, 0.1)
T_GRID = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)


def _catalan(n):
    from math import comb

    return comb(2 * n, n) // (n + 1)


def test_ladder_law_delta0_all_mass_at_first_epoch():
    law = ladder_law(delta(0), UPWARD, 5)
    assert law.mass(1, 0) == 1.0
    assert law.total() == 1.0


def test_ladder_law_symmetric_two_point_first_epochs():
    law = ladder_law(lattice(-1, [0.5, 0.0, 0.5]), UPWARD, 2)
    assert law.mass(1, 1) == 0.5
    assert law.mass(2, 0) == 0.25


def test_ladder_law_delta1_downward_is_zero():
    law = ladder_law(delta(1), DOWNWARD, 10)
    assert law.total() == 0.0


def test_downward_epochs_follow_catalan_counts():
    law = ladder_law(lattice(-1, [0.5, 0.0, 0.5]), DOWNWARD, 9)
    for k in range(1, 5):
        epoch = 2 * k - 1
        want = _catalan(k - 1) / 2.0**epoch
        assert law.mass(epoch, -1) == pytest.approx(want, abs=1e-15)
        assert law.mass(epoch + 1, -1) == 0.0


def test_epoch_mass_equals_alive_drop():
    mu = lattice(-2, [0.2, 0.1, 0.3, 0.15, 0.25])
    law = ladder_law(mu, UPWARD, 40)
    marginals = law.masses.sum(axis=1)
    assert law.survival.shape == (41,) and law.survival[0] == 1.0
    for n, mass in enumerate(marginals, start=1):
        drop = law.survival[n - 1] - law.survival[n]
        assert abs(drop - mass) <= 1e-14


def test_killed_walk_alive_stays_strictly_negative():
    for horizon in range(1, 21):
        offset, alive = _half_line_walk(lattice(-1, [0.5, 0.0, 0.5]), "nonneg", horizon).alive
        assert alive.size == 0 or offset + alive.size - 1 < 0


def test_chi_eval_delta1():
    law = ladder_law(delta(1), UPWARD, 50)
    for t in (0.0, 0.3, 2.2):
        got = chi_eval_grid(law, [0.6], [t]).values[0, 0]
        assert got == pytest.approx(0.6 * np.exp(1j * t), abs=1e-15)


def test_chi_eval_delta0_both_sides():
    up = ladder_law(delta(0), UPWARD, 50)
    down = ladder_law(delta(0), DOWNWARD, 50)
    assert chi_eval_grid(up, [0.7], [1.1]).values[0, 0] == pytest.approx(0.7, abs=1e-15)
    assert chi_eval_grid(down, [0.7], [1.1]).values[0, 0] == 0.0


def test_chi_eval_rejects_s_outside_disk():
    law = ladder_law(delta(1), UPWARD, 10)
    with pytest.raises(DomainError):
        chi_eval_grid(law, [1.0], [0.0])


def test_chi_bound_formula():
    law = ladder_law(lattice(-1, [0.5, 0.0, 0.5]), UPWARD, 30)
    got = chi_eval_grid(law, [0.8], [0.0]).bounds[0]
    assert got == pytest.approx(0.8**31 / 0.2, rel=1e-12)


def test_chi_eval_matches_spitzer_on_symmetric_walk():
    mu = lattice(-1, [0.5, 0.0, 0.5])
    law = ladder_law(mu, UPWARD, 60)
    data = truncated_data(mu, 60)
    a = chi_eval_grid(law, [0.5], [0.0]).values[0, 0]
    b = spitzer_chi_grid(data, [0.5], [0.0]).values[0, 0]
    assert abs(a - b) <= 1e-10


def test_spitzer_chi_delta0_is_s():
    data = truncated_data(delta(0), 40)
    got = spitzer_chi_grid(data, [0.35], [0.9]).values[0, 0]
    assert got == pytest.approx(0.35, abs=1e-12)


def test_spitzer_chi_delta1_at_t0_is_s():
    data = truncated_data(delta(1), 40)
    got = spitzer_chi_grid(data, [0.45], [0.0]).values[0, 0]
    assert got == pytest.approx(0.45, abs=1e-12)


def test_cross_oracle_three_point():
    mu = lattice(-1, [1 / 3, 1 / 3, 1 / 3])
    law = ladder_law(mu, UPWARD, 80)
    data = truncated_data(mu, 80)
    grid_a = chi_eval_grid(law, S_GRID, T_GRID)
    grid_b = spitzer_chi_grid(data, S_GRID, T_GRID)
    allowed = grid_a.bounds[:, None] + grid_b.bounds[:, None] + 1e-10
    assert np.all(np.abs(grid_a.values - grid_b.values) <= allowed)


def test_grid_matches_pointwise():
    mu = lattice(-2, [0.3, 0.1, 0.2, 0.4])
    law = ladder_law(mu, UPWARD, 25)
    grid = chi_eval_grid(law, [0.2, 0.7], [0.0, 1.3])
    for i, s in enumerate((0.2, 0.7)):
        for j, t in enumerate((0.0, 1.3)):
            point = chi_eval_grid(law, [s], [t]).values[0, 0]
            assert grid.values[i, j] == pytest.approx(point, abs=1e-14)


def test_factorization_delta0_residual_zero():
    report = verify_factorization(delta(0), S_GRID, T_GRID, horizon=20)
    assert report.max_residual <= 1e-15


def test_factorization_delta1_exact():
    report = verify_factorization(delta(1), S_GRID, T_GRID, horizon=60)
    assert report.max_residual <= 1e-12


def test_factorization_random_window_within_bound():
    rng = np.random.default_rng(11)
    w = rng.random(9)
    w /= w.sum()
    mu = lattice(-4, w)
    report = verify_factorization(mu, S_GRID, T_GRID, horizon=200)
    assert np.all(report.residuals <= report.bounds[:, None] + 1e-10)
    assert report.max_residual <= 1e-8


def test_factorization_at_t_zero_matches_one_minus_s():
    mu = lattice(-1, [0.35, 0.2, 0.45])
    up = ladder_law(mu, UPWARD, 150)
    down = ladder_law(mu, DOWNWARD, 150)
    for s in S_GRID:
        plus = chi_eval_grid(up, [s], [0.0])
        minus = chi_eval_grid(down, [s], [0.0])
        prod = (1 - minus.values[0, 0]) * (1 - plus.values[0, 0])
        bound = plus.bounds[0] + minus.bounds[0]
        assert abs(prod - (1 - s)) <= 3 * bound + 1e-10


def test_neg_prob_delta1_all_zero_with_sentinel():
    seq = neg_prob_sequence(truncated_data(delta(1), 30))
    assert np.all(seq.values == 0.0)
    assert seq.fitted_alpha == np.inf


def test_neg_prob_aperiodic_drifting_walk_fits_rate():
    mu = lattice(-1, [0.2, 0.1, 0.7])
    seq = neg_prob_sequence(truncated_data(mu, 120))
    assert np.all(seq.values > 0.0)
    assert seq.fitted_alpha is not None and seq.fitted_alpha > 0.0
    assert seq.r_squared >= 0.999
    # large-deviation rate for P(S_n < 0) is -ln inf_theta phi(theta)
    want = -np.log(0.1 + 2.0 * np.sqrt(0.2 * 0.7))
    assert seq.fitted_alpha == pytest.approx(want, rel=0.15)


def test_neg_prob_periodic_walk_declines_rate_fit():
    # P(S_n < 0) zig-zags by lattice parity, so the affine-confidence
    # fit must refuse rather than average the two branches
    seq = neg_prob_sequence(truncated_data(lattice(-1, [0.2, 0.0, 0.8]), 120))
    assert seq.fitted_alpha is None


def test_neg_prob_symmetric_walk_has_no_rate():
    seq = neg_prob_sequence(truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 200))
    assert seq.fitted_alpha is None
    assert seq.values[-1] == pytest.approx(0.5, abs=0.05)


def test_neg_prob_path_inequality():
    for w, lo in (([0.2, 0.0, 0.8], -1), ([0.4, 0.1, 0.5], -1), ([0.25, 0.3, 0.45], -2)):
        seq = neg_prob_sequence(truncated_data(lattice(lo, w), 60))
        base = seq.values[0]
        for n, v in enumerate(seq.values, start=1):
            assert v >= base**n - 1e-12


def test_drift_classify_examples(p5_data):
    assert drift_classify(truncated_data(delta(1), 80)) is Drift.PLUS
    assert drift_classify(truncated_data(lattice(-1, [1 / 3] * 3), 80)) is Drift.OSCILLATES
    assert drift_classify(truncated_data(lattice(-1, [0.7, 0.0, 0.3]), 80)) is Drift.MINUS
    assert drift_classify(truncated_data(lattice(-1, [0.5, 0.0, 0.5]), 80)) is Drift.UNDECIDED
    assert drift_classify(p5_data) is Drift.MINUS


def test_exp_moment_delta1_exact_ratio():
    data = truncated_data(delta(1), 40)
    rep = exp_moment_conditions(data)
    assert len(rep.probes) == 12
    for probe in rep.probes:
        assert probe.stabilized
        assert probe.growth == pytest.approx(np.exp(probe.lam), rel=1e-12)
    assert rep.condition_b is True


def test_exp_moment_ratio_matches_mgf():
    mu = lattice(-1, [0.2, 0.0, 0.8])
    data = truncated_data(mu, 80)
    rep = exp_moment_conditions(data)
    for probe in rep.probes:
        want = eval_transform(mu, np.exp(probe.lam)).real
        assert probe.growth == pytest.approx(want, rel=1e-9)


def test_exp_moment_bounded_support_certifies_condition_b(ssrw_data):
    rep = exp_moment_conditions(ssrw_data)
    assert rep.condition_b is True
    certified = [p for p in rep.probes if p.certified]
    assert certified and certified[0].lam == rep.b_witness
    # each stabilized ratio estimates phi(lambda) = cosh(lambda); the
    # first witness converges slowest, within its 1e-8 spread contract
    for probe in certified:
        assert probe.growth == pytest.approx(np.cosh(probe.lam), rel=1e-7)
    assert certified[-1].growth == pytest.approx(np.cosh(certified[-1].lam), rel=1e-9)


def test_exp_moment_heavy_tail_stays_undecided(p5_data):
    rep = exp_moment_conditions(p5_data)
    assert rep.condition_b is not True


def test_ladder_law_on_fft_path_matches_direct(monkeypatch):
    mu = lattice(-2, [0.3, 0.0, 0.1, 0.2, 0.4])
    direct = ladder_law(mu, UPWARD, 60)
    # whlab.lattice is the re-exported function, so patch the module itself
    monkeypatch.setattr(importlib.import_module("whlab.lattice"), "FFT_THRESHOLD", 8)
    fft = ladder_law(mu, UPWARD, 60)
    assert np.abs(fft.survival - direct.survival).max() <= 1e-14


# -- the raw-array walk against the loop of public calls it replaced ---------

_weights = st.sampled_from([0.0, 0.1, 0.25, 0.5]) | st.floats(0.01, 1.0)
# windows inside [-5, 5]; interior and edge zeros included
step_laws = st.integers(-5, 5).flatmap(
    lambda lo: st.lists(_weights, min_size=1, max_size=6 - lo)
    .filter(lambda w: sum(w) > 0.0)
    .map(lambda w: lattice(lo, np.asarray(w) / sum(w)))
)


def _reference_walk(mu, side, horizon):
    """Crossings, alive totals and restricted powers by convolve + split_nonneg."""
    alive, power = delta(0), delta(0)
    crossings, survival, restricted = [], [1.0], []
    for _ in range(horizon):
        neg, nonneg = split_nonneg(convolve(alive, mu))
        crossing, alive = (nonneg, neg) if side == UPWARD else (neg, nonneg)
        crossings.append(crossing)
        survival.append(alive.total)
        power = convolve(power, mu)
        restricted.append(split_nonneg(power)[1])
    return crossings, survival, restricted


@settings(max_examples=60, deadline=None)
@given(step_laws, st.sampled_from([UPWARD, DOWNWARD]), st.integers(1, 60))
def test_walk_kernel_matches_public_loop(mu, side, horizon):
    crossings, survival, restricted = _reference_walk(mu, side, horizon)
    law = ladder_law(mu, side, horizon)
    hit = [c for c in crossings if not c.is_zero]
    lo = min((c.min_index for c in hit), default=0 if side == UPWARD else -1)
    hi = max((c.max_index for c in hit), default=lo - 1)
    want = np.zeros((horizon, hi - lo + 1))
    for n, c in enumerate(crossings):
        if not c.is_zero:
            want[n, c.min_index - lo : c.max_index - lo + 1] = c.weights
    assert law.height_offset == lo
    assert np.array_equal(law.masses, want)
    assert np.array_equal(law.survival, survival)
    epochs = law.masses.sum(axis=1)
    for n in range(1, horizon + 1):
        assert abs(law.survival[n - 1] - law.survival[n] - epochs[n - 1]) <= 1e-14
    data = truncated_data(mu, horizon)
    for got, ref in zip(data.restricted, restricted, strict=True):
        assert got.offset == ref.offset
        assert np.array_equal(got.weights, ref.weights)


# -- half-line probes against the every-row, one-lambda-at-a-time form ------


def _old_log_restricted_mgf(data, lam):
    out = np.full(data.horizon, -np.inf)
    for i, r in enumerate(data.restricted):
        if r.is_zero:
            continue
        with np.errstate(divide="ignore"):
            logw = np.log(r.weights)
        out[i] = logsumexp(lam * r.indices() + logw)
    return out


def _old_exp_moment_probes(data):
    """(lam, growth or nan, stabilized, certified) rows, condition_b, witness."""
    rows, witness, any_unstable = [], None, False
    for lam in default_lambda_grid(data):
        logs = _old_log_restricted_mgf(data, lam)
        finite = np.isfinite(logs)
        if finite.sum() < 6:
            rows.append((lam, np.nan, False, False))
            any_unstable = True
            continue
        ratios = np.exp(np.diff(logs[finite]))
        last = ratios[-4:]
        growth = float(ratios[-1])
        stabilized = float(last.max() - last.min()) <= 1e-8 * max(1.0, abs(growth))
        certified = stabilized and growth > 1.0 + 1e-9
        if certified and witness is None:
            witness = float(lam)
        any_unstable = any_unstable or not stabilized
        rows.append((lam, growth if stabilized else np.nan, stabilized, certified))
    condition_b = True if witness is not None else (None if any_unstable else False)
    return np.array(rows, dtype=float), condition_b, witness


def _old_mgf_ratio_points(data, lambdas):
    pts, est, known = [], [], []
    for lam in lambdas:
        logs = _old_log_restricted_mgf(data, lam)
        if not np.all(np.isfinite(logs[-3:])):
            continue
        ratio = float(np.exp(logs[-1] - logs[-2]))
        prev = float(np.exp(logs[-2] - logs[-3]))
        if abs(ratio - prev) <= _STAB_TOL * max(1.0, abs(ratio)):
            pts.append(float(lam))
            est.append(ratio)
            known.append(float(np.exp(logs[0])))
    return np.array(pts), np.array(est), np.array(known)


def _assert_probes_match(data):
    """The probes equal their every-row forms bit for bit."""
    rep = exp_moment_conditions(data)
    rows = [
        (p.lam, np.nan if p.growth is None else p.growth, p.stabilized, p.certified)
        for p in rep.probes
    ]
    want, condition_b, witness = _old_exp_moment_probes(data)
    assert np.array_equal(np.array(rows, dtype=float), want, equal_nan=True)
    assert (rep.condition_b, rep.b_witness) == (condition_b, witness)
    if data.horizon < 3:
        return  # the ratio points need three powers
    grid = default_lambda_grid(data)
    lambdas = np.unique(np.concatenate([grid, np.geomspace(grid[0] / 20.0, grid[-1], 40)]))
    got = _mgf_ratio_points(data, lambdas)
    ref = _old_mgf_ratio_points(data, lambdas)
    for a, b in zip(got, ref, strict=True):
        assert np.array_equal(a, b)


# sub-distributions on 0..4, the empty measure included
_half_line_powers = st.one_of(
    st.just(zero_measure()),
    st.tuples(st.integers(0, 4), st.lists(_weights, min_size=1, max_size=5))
    .filter(lambda t: t[1][0] > 0.0 and t[1][-1] > 0.0)
    .map(lambda t: lattice(t[0], np.asarray(t[1]) / (1.5 * sum(t[1])))),
)


@settings(max_examples=60, deadline=None)
@given(step_laws, st.integers(1, 8))
def test_probes_match_every_row_form_on_walk_data(mu, horizon):
    _assert_probes_match(truncated_data(mu, horizon))


@settings(max_examples=60, deadline=None)
@given(st.lists(_half_line_powers, min_size=1, max_size=8))
def test_probes_match_every_row_form_on_ragged_data(powers):
    _assert_probes_match(TruncatedData(len(powers), tuple(powers)))


@pytest.mark.parametrize("horizon", [1, 3, 8])
def test_probes_match_every_row_form_on_all_zero_data(horizon):
    _assert_probes_match(TruncatedData(horizon, (zero_measure(),) * horizon))


def test_probes_match_every_row_form_with_zero_power_in_the_middle():
    powers = [lattice(0, [0.2, 0.3, 0.1]) for _ in range(8)]
    powers[3] = zero_measure()
    powers[6] = lattice(2, [0.4])
    _assert_probes_match(TruncatedData(8, tuple(powers)))


def test_probes_evaluate_only_the_powers_they_read(monkeypatch):
    import whlab.reconstruct

    data = truncated_data(two_point(-2, 1, 0.85).dist, 40)
    inner = whlab.ladder.log_restricted_mgf
    calls = []

    def spy(data, lambdas, n):
        calls.append((n, len(lambdas)))
        return inner(data, lambdas, n)

    monkeypatch.setattr(whlab.ladder, "log_restricted_mgf", spy)
    monkeypatch.setattr(whlab.reconstruct, "log_restricted_mgf", spy)
    exp_moment_conditions(data)
    assert calls == [(n, 12) for n in range(36, 41)]
    calls.clear()
    lambdas = np.geomspace(1e-3, 1.0, 41)
    _mgf_ratio_points(data, lambdas)
    assert calls == [(n, 41) for n in (1, 38, 39, 40)]
