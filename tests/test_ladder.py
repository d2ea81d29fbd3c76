"""Ladder laws, Wiener-Hopf factors, and the drift/moment diagnostics."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whlab import (
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
    verify_factorization,
)
from whlab.errors import DomainError
from whlab.ladder import DOWNWARD, UPWARD, Drift
from whlab.lattice import _half_line_walk

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
    marginals = law.epoch_masses()
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
    epochs = law.epoch_masses()
    for n in range(1, horizon + 1):
        assert abs(law.survival[n - 1] - law.survival[n] - epochs[n - 1]) <= 1e-14
    data = truncated_data(mu, horizon)
    for got, ref in zip(data.restricted, restricted, strict=True):
        assert got.offset == ref.offset
        assert np.array_equal(got.weights, ref.weights)
