"""Ladder laws, Wiener-Hopf factors, and the exponential-moment probes."""

import importlib
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import whlab.ladder
from conftest import random_corpus
from reference import data_from_powers
from whlab import (
    chi_eval_grid,
    delta,
    convolve,
    exp_moment_conditions,
    geometric_mixture,
    ladder_law,
    lattice,
    power_tail_pair,
    spitzer_chi_grid,
    split_nonneg,
    truncated_data,
    two_point,
    verify_factorization,
)
from whlab.errors import DomainError, SizeLimitError
from whlab.ladder import (
    DOWNWARD,
    UPWARD,
    _U,
    _lambda_grid,
    _stabilized_growth,
    log_restricted_mgf,
)
from whlab.lattice import zero_measure
from whlab.reconstruct import recover_exponential

S_GRID = np.arange(0.1, 0.95, 0.1)
T_GRID = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)


def _catalan(n):
    from math import comb

    return comb(2 * n, n) // (n + 1)


def test_ladder_law_delta0_all_mass_at_first_epoch():
    law = ladder_law(delta(0), UPWARD, 5)
    assert law.mass(1, 0) == 1.0
    assert law.masses.sum() == 1.0


def test_ladder_law_symmetric_two_point_first_epochs():
    law = ladder_law(lattice(-1, [0.5, 0.0, 0.5]), UPWARD, 2)
    assert law.mass(1, 1) == 0.5
    assert law.mass(2, 0) == 0.25


def test_ladder_law_delta1_downward_is_zero():
    law = ladder_law(delta(1), DOWNWARD, 10)
    assert law.masses.sum() == 0.0


def test_ladder_law_refuses_the_zero_measure():
    with pytest.raises(DomainError, match="^step distribution must be nonzero$"):
        ladder_law(zero_measure(), UPWARD, 5)


def test_ladder_law_mass_is_zero_outside_its_table():
    law = ladder_law(lattice(-1, [0.5, 0.0, 0.5]), UPWARD, 3)
    assert law.mass(1, 1) == 0.5
    # epochs 0 and 4 lie outside the horizon, heights -1 and 2 outside 0..1
    for n, k in ((0, 0), (4, 0), (1, -1), (1, 2)):
        assert law.mass(n, k) == 0.0


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
    assert isinstance(law.tail, float)
    tails = [1.0] + [ladder_law(mu, UPWARD, n).tail for n in range(1, 41)]
    assert tails[40] == law.tail
    for n, mass in enumerate(law.masses.sum(axis=1), start=1):
        assert abs(tails[n - 1] - tails[n] - mass) <= 1e-14


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
    # SSRW: P(tau+ > 30) = P(S_1 = -1) P(max_{k <= 29} S_k <= 0) = C(29, 14) / 2^30
    law = ladder_law(lattice(-1, [0.5, 0.0, 0.5]), UPWARD, 30)
    got = chi_eval_grid(law, [0.8], [0.0]).bounds[0]
    assert got == pytest.approx(0.8**31 * comb(29, 14) / 2.0**30, rel=1e-12)


GRID_ROUTES = {
    "chi_eval_grid": lambda mu, horizon, s, t: chi_eval_grid(
        ladder_law(mu, UPWARD, horizon), s, t
    ),
    "spitzer_chi_grid": lambda mu, horizon, s, t: spitzer_chi_grid(
        truncated_data(mu, horizon), s, t
    ),
    "verify_factorization": lambda mu, horizon, s, t: verify_factorization(
        mu, s, t, horizon
    ),
}


@pytest.mark.parametrize("route", sorted(GRID_ROUTES))
@pytest.mark.parametrize("s", [np.nan, complex(np.nan, 0.0), np.inf, 1.0])
def test_grids_reject_s_not_inside_disk(route, s):
    with pytest.raises(DomainError):
        GRID_ROUTES[route](lattice(-1, [0.3, 0.3, 0.4]), 10, [0.5, s], [0.0])


@pytest.mark.parametrize("route", sorted(GRID_ROUTES))
@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_grids_reject_non_finite_t(route, t):
    with pytest.raises(DomainError):
        GRID_ROUTES[route](lattice(-1, [0.3, 0.3, 0.4]), 10, [0.5], [0.0, t])


@pytest.mark.parametrize("route", sorted(GRID_ROUTES))
@pytest.mark.parametrize(
    "s, t, message",
    [
        (["a"], [0.0], "s values must be numbers"),
        ([0.5], ["a"], "t values must be numbers"),
        ([[0.5]], [0.0], "s values must be a 1-d sequence"),
        ([0.5], 0.0, "t values must be a 1-d sequence"),
    ],
)
def test_grids_refuse_values_that_are_not_a_sequence_of_numbers(route, s, t, message):
    with pytest.raises(DomainError, match=message):
        GRID_ROUTES[route](lattice(-1, [0.3, 0.3, 0.4]), 10, s, t)


@pytest.mark.parametrize("route", sorted(GRID_ROUTES))
def test_grids_on_empty_s_are_empty(route):
    got = GRID_ROUTES[route](lattice(-1, [0.3, 0.3, 0.4]), 10, [], T_GRID)
    values = got.chi_plus if route == "verify_factorization" else got.values
    assert values.shape == (0, len(T_GRID))
    assert got.bounds.shape == (0,)


@pytest.mark.parametrize("route", sorted(GRID_ROUTES))
@pytest.mark.parametrize(
    "horizon", [2.5, 3.0, True, np.float64(3), 0], ids=["2.5", "3.0", "True", "f64", "0"]
)
def test_grids_reject_a_horizon_that_is_not_a_positive_integer(route, horizon):
    with pytest.raises(DomainError, match="horizon must be an integer"):
        GRID_ROUTES[route](lattice(-1, [0.3, 0.3, 0.4]), horizon, [0.5], [0.0])


@pytest.mark.parametrize("route", sorted(GRID_ROUTES))
def test_grids_accept_a_numpy_integer_horizon(route):
    mu = lattice(-1, [0.3, 0.3, 0.4])
    got = GRID_ROUTES[route](mu, np.int64(3), S_GRID, T_GRID)
    want = GRID_ROUTES[route](mu, 3, S_GRID, T_GRID)
    key = "chi_plus" if route == "verify_factorization" else "values"
    assert np.array_equal(getattr(got, key), getattr(want, key))
    assert np.array_equal(got.bounds, want.bounds)


# proper laws on windows inside [-6, 6], about 30% of the atoms zero
_window_laws = (
    st.integers(-6, 6)
    .flatmap(
        lambda lo: st.tuples(
            st.just(lo),
            st.lists(
                st.tuples(st.integers(0, 9), st.floats(0.01, 1.0)).map(
                    lambda p: 0.0 if p[0] < 3 else p[1]
                ),
                min_size=1,
                max_size=7 - lo,
            ),
        )
    )
    .filter(lambda t: sum(t[1]) > 0.0)
    .map(lambda t: lattice(t[0], np.asarray(t[1]) / sum(t[1])))
)
_disk_points = st.tuples(st.floats(0.0, 0.97), st.floats(0.0, 2.0 * np.pi)).map(
    lambda p: p[0] * np.exp(1j * p[1])
)
# both routes build each phase e^{ikt} from the rounded product k t, whose
# error u |k t| grows with |t|: past |t| ~ 1e6 it outgrows a flat 1e-10 slack
# (at t = 4.74e14 + 1/16 the routes part by 4.6e-3 on delta(1)), which is why
# the grids' roundoff carries it; up to 1e3 a 3,000-law sweep stayed 1.1e-13
# inside that slack
_real_t = st.floats(-1e3, 1e3)


@settings(max_examples=150, deadline=None)
@given(
    _window_laws,
    st.integers(1, 60),
    st.lists(_disk_points, min_size=1, max_size=3),
    st.lists(_real_t, min_size=1, max_size=3),
)
def test_transform_routes_agree_within_their_bounds(mu, horizon, s, t):
    dp = chi_eval_grid(ladder_law(mu, UPWARD, horizon), s, t)
    series = spitzer_chi_grid(truncated_data(mu, horizon), s, t)
    allowed = (dp.bounds + series.bounds)[:, None] + 1e-10
    assert np.all(np.abs(dp.values - series.values) <= allowed)


@example(delta(1), 20, [0.5], [4.74e14])
@example(delta(1), 20, [0.5], [4.74e14 + 0.0625])
@settings(max_examples=150, deadline=None)
@given(
    _window_laws,
    st.integers(1, 60),
    st.lists(_disk_points, min_size=1, max_size=3),
    st.lists(st.floats(-1e15, 1e15), min_size=1, max_size=3),
)
def test_transform_routes_agree_within_bounds_and_roundoff_up_to_huge_t(
    mu, horizon, s, t
):
    dp = chi_eval_grid(ladder_law(mu, UPWARD, horizon), s, t)
    series = spitzer_chi_grid(truncated_data(mu, horizon), s, t)
    allowed = (dp.bounds + dp.roundoff + series.bounds + series.roundoff)[:, None]
    assert np.all(np.abs(dp.values - series.values) <= allowed)


def _survival_corpus():
    extra = [lattice(-1, [0.5, 0.0, 0.5]), lattice(-3, [0.1, 0.2, 0.3, 0.1, 0.3])]
    return random_corpus(6) + extra


BOUND_S = np.concatenate([S_GRID, [0.5j, -0.3 + 0.4j, -0.85]])


@pytest.mark.parametrize("horizon", [20, 50])
def test_chi_survival_bound_is_tighter_and_certifies(horizon):
    mods = np.abs(BOUND_S)
    old = mods ** (horizon + 1) / (1.0 - mods)
    for mu in _survival_corpus():
        for side in (UPWARD, DOWNWARD):
            short = chi_eval_grid(ladder_law(mu, side, horizon), BOUND_S, T_GRID)
            long = chi_eval_grid(ladder_law(mu, side, 8 * horizon), BOUND_S, T_GRID)
            assert np.all(short.bounds <= old)
            gap = np.abs(short.values - long.values).max(axis=1)
            assert np.all(gap <= short.bounds + 1e-15)


def _factor_product(report):
    return (1.0 - report.chi_minus) * (1.0 - report.chi_plus)


@pytest.mark.parametrize("horizon", [20, 50])
def test_factorization_survival_bound_is_tighter_and_certifies(horizon):
    mods = np.abs(BOUND_S)
    old = 3.0 * mods ** (horizon + 1) / (1.0 - mods)
    for mu in _survival_corpus():
        short = verify_factorization(mu, BOUND_S, T_GRID, horizon)
        long = verify_factorization(mu, BOUND_S, T_GRID, 8 * horizon)
        assert np.all(short.bounds <= old)
        gap = np.abs(_factor_product(short) - _factor_product(long)).max(axis=1)
        assert np.all(gap <= short.bounds + 1e-15)


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
    data = truncated_data(mu, 25)
    s_values = (0.2, 0.7, 0.5j, -0.3 + 0.4j)
    for grid_fn in (
        lambda s, t: chi_eval_grid(law, s, t),
        lambda s, t: spitzer_chi_grid(data, s, t),
    ):
        grid = grid_fn(s_values, [0.0, 1.3])
        for i, s in enumerate(s_values):
            for j, t in enumerate((0.0, 1.3)):
                point = grid_fn([s], [t]).values[0, 0]
                assert grid.values[i, j] == pytest.approx(point, abs=1e-14)


def test_chi_eval_grid_is_independent_of_s_batching(corpus100):
    s_values = np.concatenate([S_GRID, [0.5j, -0.3 + 0.4j]])
    for mu in corpus100:
        for side in (UPWARD, DOWNWARD):
            law = ladder_law(mu, side, 200)
            grid = chi_eval_grid(law, s_values, T_GRID).values
            rows = [chi_eval_grid(law, [s], T_GRID).values[0] for s in s_values]
            np.testing.assert_array_equal(grid, np.array(rows))


def _phase_first_chi(law, s_values, t_values):
    """Phase-first reference for chi_eval_grid: every epoch row meets the
    height phases before the sum over s."""
    s_arr = np.asarray(s_values, dtype=complex)
    if law.masses.size == 0:
        return np.zeros((len(s_arr), len(t_values)), dtype=complex)
    phases = np.exp(1j * np.outer(law.heights, t_values))
    per_epoch = law.masses.astype(complex) @ phases
    s_pow = s_arr[:, None] ** np.arange(1, law.horizon + 1)[None, :]
    return np.vstack([row @ per_epoch for row in s_pow])


def _phase_first_spitzer(data, s_values, t_values):
    """Phase-first reference for spitzer_chi_grid: every row of the
    restricted-power table meets the phases before the sum over n."""
    s_arr = np.asarray(s_values, dtype=complex)
    phases = np.exp(1j * np.outer(np.arange(data.table.shape[1]), t_values))
    a_vals = data.table.astype(complex) @ phases
    n_idx = np.arange(1, data.horizon + 1)
    s_pow = (s_arr[:, None] ** n_idx[None, :]) / n_idx[None, :]
    return 1.0 - np.exp(-(s_pow @ a_vals))


def test_grids_match_phase_first_reference(corpus100, corpus100_data):
    s_values = np.concatenate([S_GRID, [0.5j, -0.3 + 0.4j]])
    worst = 0.0
    for mu, data in zip(corpus100, corpus100_data):
        for side in (UPWARD, DOWNWARD):
            law = ladder_law(mu, side, data.horizon)
            got = chi_eval_grid(law, s_values, T_GRID).values
            want = _phase_first_chi(law, s_values, T_GRID)
            worst = max(worst, float(np.abs(got - want).max()))
        got = spitzer_chi_grid(data, s_values, T_GRID).values
        want = _phase_first_spitzer(data, s_values, T_GRID)
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-13


def _ulps(a, b):
    """Distance in units in the last place; the two zeros are 0 apart."""

    def ordered(x):
        i = x.view(np.int64)
        return np.where(i < 0, np.int64(-(2**63)) - i, i)

    return np.abs(ordered(a) - ordered(b))


def test_phases_match_complex_exp():
    rng = np.random.default_rng(19)
    heights = np.arange(-40, 4001)
    # |t| <= 1e3, at scales from 1e-6 up, with both zeros
    scales = 10.0 ** rng.integers(-6, 4, 60)
    t = np.concatenate([[0.0, -0.0, np.pi, -np.pi], rng.uniform(-1.0, 1.0, 60) * scales])
    got = whlab.ladder._phases(heights, t)
    want = np.exp(1j * np.outer(heights, t))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert _ulps(got.real, want.real).max() <= 2
    assert _ulps(got.imag, want.imag).max() <= 2


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


def test_factorization_check_catches_1e12_of_mass_moved_in_phi(corpus100):
    # phi alone moves 1e-12 of mass from mu's bottom atom to its top atom;
    # the factors stay those of mu, so the identity is off by up to 2e-12 |s|
    caught = 0
    for mu in corpus100:
        report = verify_factorization(mu, S_GRID, T_GRID, horizon=200)
        weights = mu.weights.copy()
        weights[0] -= 1e-12
        weights[-1] += 1e-12
        phi = weights @ np.exp(1j * np.outer(mu.indices(), T_GRID))
        lhs = 1.0 - report.s_values[:, None] * phi[None, :]
        residuals = np.abs(lhs - _factor_product(report))
        allowed = (report.bounds + report.roundoff)[:, None]
        assert np.all(report.residuals <= allowed)
        caught += bool(np.any(residuals > allowed))
    assert caught == len(corpus100)


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


def _probe_rows(data):
    """The per-lambda (lam, growth or nan, stabilized, certified) rows, after
    checking that they give the library's witness and cap."""
    rows, witness = _old_exp_moment_probes(data)
    rep = exp_moment_conditions(data)
    assert (rep.b_witness, rep.lambda_cap) == (witness, rows[-1, 0])
    return rows


def test_exp_moment_delta1_exact_ratio():
    data = truncated_data(delta(1), 40)
    lam, growth, stabilized, _ = _probe_rows(data).T
    assert len(lam) == 12
    assert stabilized.all()
    assert growth == pytest.approx(np.exp(lam), rel=1e-12)
    assert exp_moment_conditions(data).b_witness == lam[0]


def test_exp_moment_ratio_matches_mgf():
    mu = lattice(-1, [0.2, 0.0, 0.8])
    lam, growth, _, _ = _probe_rows(truncated_data(mu, 80)).T
    want = [mu.weights @ np.exp(x * mu.indices()) for x in lam]
    assert growth == pytest.approx(want, rel=1e-9)


def test_exp_moment_bounded_support_certifies_condition_b(ssrw_data):
    lam, growth, _, certified = _probe_rows(ssrw_data).T
    certified = certified.astype(bool)
    assert certified.any()
    # each stabilized ratio estimates phi(lambda) = cosh(lambda); the
    # first witness converges slowest, within its 1e-8 spread contract
    lam, growth = lam[certified], growth[certified]
    assert growth == pytest.approx(np.cosh(lam), rel=1e-7)
    assert growth[-1] == pytest.approx(np.cosh(lam[-1]), rel=1e-9)


def test_exp_moment_heavy_tail_stays_undecided(p5_data):
    assert exp_moment_conditions(p5_data).b_witness is None


def test_ladder_law_on_fft_path_matches_direct(monkeypatch):
    mu = lattice(-2, [0.3, 0.0, 0.1, 0.2, 0.4])
    direct = ladder_law(mu, UPWARD, 60)
    # whlab.lattice is the re-exported function, so patch the module itself
    monkeypatch.setattr(importlib.import_module("whlab.lattice"), "FFT_THRESHOLD", 8)
    fft = ladder_law(mu, UPWARD, 60)
    assert abs(fft.tail - direct.tail) <= 1e-14


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


def _masses_on(law, other):
    """law's masses on other's heights: law's rows, zero-padded to other's columns."""
    out = np.zeros((law.horizon, other.masses.shape[1]))
    j = law.height_offset - other.height_offset
    assert 0 <= j and j + law.masses.shape[1] <= out.shape[1]
    out[:, j : j + law.masses.shape[1]] = law.masses
    return out


def _tail_roundoff(mu, horizon, tail):
    """First-order bound on |walk tail - public loop's alive total| at a horizon.

    For the direct convolution path, in the terms of Higham, *Accuracy and
    Stability of Numerical Algorithms* (2nd ed., ch. 2-3): u is the unit
    roundoff, gamma_k ~ k u bounds k roundings, and every term is
    nonnegative. With m = len(mu), each stepped entry is a dot product of
    at most m terms, within gamma_m relative, so after N steps every alive
    entry of either computation is within N gamma_m of the value the same
    recursion takes in exact arithmetic, and the alive window has at most
    W = N (m - 1) + 1 entries. The public loop sums its last window
    (gamma_{W-1}). The walk sums its last window and each piece it cut
    (gamma_W), scales a piece by mu.total ** k for k <= N steps left
    (mu.total within gamma_{m-1}, so k gamma_{m-1}, plus 2u for the power
    and u for the product) and adds at most N pieces (gamma_N). Both are
    sums of exact masses totalling the exact tail T, so
    |tail - T| <= u (2 N m + W + 4) T and |survival - T| <= u (N m + W) T.
    A product that underflows errs by up to 2^-1074 absolute, at most m per
    entry and W entries a step, and one step carries an absolute error
    onward at most times mu.total <= 1: N W m 2^-1074 per side.
    """
    m = len(mu.weights)
    width = horizon * (m - 1) + 1
    rel = _U * (3 * horizon * m + 2 * width + 4)
    return rel * tail + 2.0 * horizon * width * m * 2.0**-1074


def _assert_walk_matches_public_loop(mu, side, horizon, tail_bytes=False):
    """Crossing rows and r_n byte for byte; tails within `_tail_roundoff`,
    or byte for byte with ``tail_bytes`` (mass the killed walk left alive
    on the wrong side of the origin would show in either)."""
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
    assert law.masses.tobytes() == want.tobytes()
    # the reference loop's alive total after step n is the tail of the
    # n-step law, whose masses are the N-step law's first n rows
    tails = {0: 1.0}
    for n in sorted({*range(1, min(horizon, 60) + 1), horizon}):
        short = law if n == horizon else ladder_law(mu, side, n)
        if tail_bytes:
            assert np.float64(short.tail).tobytes() == np.float64(survival[n]).tobytes()
        else:
            assert abs(short.tail - survival[n]) <= _tail_roundoff(mu, n, survival[n])
        assert _masses_on(short, law).tobytes() == law.masses[:n].tobytes()
        tails[n] = short.tail
    # a step keeps mu.total of the alive mass and kills the crossing
    epochs = law.masses.sum(axis=1)
    for n in range(1, min(horizon, 60) + 1):
        assert abs(tails[n - 1] * mu.total - tails[n] - epochs[n - 1]) <= 1e-14
    data = truncated_data(mu, horizon)
    assert data.table.tobytes() == data_from_powers(restricted).table.tobytes()
    for got, ref in zip(data.restricted, restricted, strict=True):
        assert got.offset == ref.offset
        assert got.weights.tobytes() == ref.weights.tobytes()
        assert np.float64(got.total).tobytes() == np.float64(ref.total).tobytes()


@settings(max_examples=60, deadline=None)
@given(step_laws, st.sampled_from([UPWARD, DOWNWARD]), st.integers(1, 60))
def test_walk_kernel_matches_public_loop(mu, side, horizon):
    _assert_walk_matches_public_loop(mu, side, horizon)


def _steep_law(top):
    """One atom at -1 and top + 1 atoms on 0..top, random weights."""
    w = np.random.default_rng(top).random(top + 2)
    return lattice(-1, w / w.sum())


_FFT_LAW = _steep_law(1200)


@pytest.mark.parametrize("side", [UPWARD, DOWNWARD])
@pytest.mark.parametrize(
    "mu, horizon",
    [
        # edge atoms underflow from the second power on: the trim branch runs
        (lattice(-1, [1e-200, 0.5, 0.5, 1e-200]), 12),
        (lattice(-2, [1e-200, 0.0, 0.6, 0.4]), 12),
        # point masses take the singleton path
        (lattice(3, [1.0]), 5),
        (lattice(-3, [1.0]), 5),
        # the unkilled walk's windows pass FFT_THRESHOLD; the downward
        # walk's cut keeps its windows on the direct path
        (_FFT_LAW, 16),
        # r_n reaches 1100, past the 954 columns the table starts with
        (lattice(-1, [0.5, 0.0, 0.5]), 1100),
        # the deep edge underflows from about step 620 on
        (two_point(-2, 1, 0.7).dist, 1500),
        # the top edge loses more than _PEEL entries a step: _trim's full pass
        (geometric_mixture((0.3, 0.5), (0.5, 0.5)).dist, 40),
        # crossings with exact-zero edges, and all-zero rows on both sides
        (lattice(-3, [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5]), 200),
        # defective (total 0.999988): the mass cut from the downward walk
        # loses 1 - total a step on its way to the horizon
        (power_tail_pair().dist, 40),
        # span 3: the origin moves 1/3 of a sublattice point a step
        (two_point(-1, 2, 0.4).dist, 200),
        # span 4 with three atoms
        (lattice(-4, [0.2, 0, 0, 0, 0.5, 0, 0, 0, 0.3]), 200),
    ],
    ids=[
        "underflow_both_edges",
        "underflow_low_edge",
        "point_up",
        "point_down",
        "fft",
        "table_widens",
        "deep_edge_underflows",
        "top_edge_underflows",
        "zero_edged_crossings",
        "defective_power_tail",
        "span_3",
        "span_4_three_atoms",
    ],
)
def test_walk_kernel_matches_public_loop_on_edge_cases(mu, side, horizon, monkeypatch):
    if mu is _FFT_LAW:
        _assert_fft_walk_matches_public_loop(mu, side, horizon, monkeypatch)
    else:
        _assert_walk_matches_public_loop(mu, side, horizon)


def _assert_fft_walk_matches_public_loop(mu, side, horizon, monkeypatch):
    lat = importlib.import_module("whlab.lattice")
    raw, fft_outputs = lat._convolve_raw, []

    def counting(a, b):
        out_len = len(a) + len(b) - 1
        if min(len(a), len(b)) > 1 and out_len >= lat.FFT_THRESHOLD:
            fft_outputs.append(out_len)
        return raw(a, b)

    monkeypatch.setattr(lat, "_convolve_raw", counting)
    # r_n's window has n * 1201 + 1 entries, past FFT_THRESHOLD (16384) from
    # step 14 on (FFT noise then trims a few edge atoms of order w**n), and
    # nothing below the cut: the walk takes the FFT path on the windows the
    # public loop takes it on, with the same bytes
    truncated_data(mu, horizon)
    assert len(fft_outputs) == 3 and fft_outputs[0] == 14 * 1201 + 1
    if side == UPWARD:
        _assert_walk_matches_public_loop(mu, UPWARD, horizon)
        return
    # the downward walk's alive window would reach 16 * 1201 entries too,
    # but the cut keeps it near the origin, on the direct path, so its
    # crossings are the all-direct public loop's bytes
    fft_outputs.clear()
    ladder_law(mu, DOWNWARD, horizon)
    assert fft_outputs == []
    monkeypatch.setattr(lat, "FFT_THRESHOLD", lat.MAX_WINDOW + 1)
    _assert_walk_matches_public_loop(mu, DOWNWARD, horizon)


@pytest.mark.parametrize(
    "mu, side", [(lattice(2, [0.5, 0.3]), DOWNWARD), (lattice(-4, [0.5, 0.3]), UPWARD)]
)
def test_walk_that_cannot_cross_keeps_a_defective_tail(mu, side):
    # no mass ever crosses, so the cut takes all but len(mu) entries, and
    # what it takes must still lose 1 - total = 0.2 at every step left:
    # tails 0.512, 1.3292e-4 and 1.7218e-39
    for horizon in (3, 40, 400):
        law = ladder_law(mu, side, horizon)
        assert not law.masses.any()
        assert abs(law.tail - 0.8**horizon) <= _tail_roundoff(mu, horizon, 0.8**horizon)


def test_killed_walk_finishes_where_the_uncut_window_would_not_fit(monkeypatch):
    lat = importlib.import_module("whlab.lattice")
    wide = two_point(-1, 300000, 0.5).dist
    monkeypatch.setattr(lat, "MAX_WINDOW", 1 << 10)
    mu = two_point(-1, 300, 0.5).dist
    # the span is 301, so every walk steps windows of a few entries, but r_4
    # reaches height 1200: its table would need 1201 columns
    with pytest.raises(SizeLimitError, match="table of 1201 columns"):
        truncated_data(mu, 5)
    # the downward walk's crossings land on -1 only, so it finishes
    law = ladder_law(mu, DOWNWARD, 5)
    assert law.masses.sum() == 0.5
    assert law.tail == 0.5
    # so does one whose law spans 300,001 lattice points: on Z it would
    # step windows of 300,002 entries 4,000 times
    law = ladder_law(wide, DOWNWARD, 4000)
    assert law.masses.shape == (4000, 1) and law.masses.sum() == 0.5
    assert abs(law.tail - 0.5) <= 1e-15


def test_span_d_walk_convolves_its_sublattice_only(monkeypatch):
    # two_point(-2, 1, 0.7) has span 3: its windows count sublattice points,
    # a third of the lattice points a walk on Z convolves (1,504 at most)
    correlate, outputs = np.correlate, []

    def counting(a, v, mode):
        out = correlate(a, v, mode)
        outputs.append(out.size)
        return out

    monkeypatch.setattr(np, "correlate", counting)
    truncated_data(two_point(-2, 1, 0.7).dist, 1500)
    assert len(outputs) == 1499 and max(outputs) <= 502


def _entry_roundoff(mu, n, value):
    """First-order bound on |entry - public loop's entry| after n steps.

    In the terms of `_tail_roundoff`: each step's entry is a dot product of
    at most m = len(mu) nonnegative terms, within gamma_m relative, however
    a BLAS groups them, so after n steps each side is within n m u of the
    exact value, and the public loop's entries have the same exact value.
    An underflowing product errs by up to 2^-1074, at most m per entry a
    step, carried onward at most times mu.total <= 1: n m 2^-1074 a side.
    """
    m = len(mu.weights)
    return 2.0 * n * m * (_U * value + 2.0**-1074)


@pytest.mark.parametrize("side", [UPWARD, DOWNWARD])
def test_long_span_d_walk_is_within_roundoff_of_public_loop(side):
    # 13 entries with span 6: a dot product over the full window has up to
    # 13 terms, enough for a BLAS to sum them in vector lanes, so entries
    # move in the last bits, not bytes
    mu = lattice(-6, [0.3, 0, 0, 0, 0, 0, 0.3, 0, 0, 0, 0, 0, 0.4])
    horizon = 200
    crossings, survival, restricted = _reference_walk(mu, side, horizon)
    law = ladder_law(mu, side, horizon)
    data = truncated_data(mu, horizon)
    steps = np.arange(1, horizon + 1)[:, None]
    for got, offset, ref in (
        (law.masses, law.height_offset, crossings),
        (data.table, 0, restricted),
    ):
        want = np.zeros_like(got)
        for row, c in zip(want, ref, strict=True):
            if not c.is_zero:
                row[c.min_index - offset : c.max_index - offset + 1] = c.weights
        assert (np.abs(got - want) <= _entry_roundoff(mu, steps, want)).all()
    assert abs(law.tail - survival[horizon]) <= _tail_roundoff(
        mu, horizon, survival[horizon]
    )


def test_unkilled_walk_stops_before_its_table_passes_max_window():
    # two-entry sublattice windows, but r_2 reaches height 2 * 10**6
    with pytest.raises(SizeLimitError, match="table of 2000001 columns"):
        truncated_data(two_point(-1, 10**6, 0.5).dist, 5)


def test_walk_table_past_its_entry_budget_is_refused(monkeypatch):
    lat = importlib.import_module("whlab.lattice")
    mu = two_point(-1, 300, 0.5).dist
    # r_n's table starts at (4000, 263) and doubles its columns only up to
    # the budget's 524, but r_2 needs 601: 2,404,000 entries pass 2**21
    monkeypatch.setattr(lat, "MAX_TABLE", 1 << 21)
    with pytest.raises(
        SizeLimitError,
        match="table of 4000 rows and 601 columns exceeds maximum 2097152 entries",
    ):
        truncated_data(mu, 4000)
    # the killed walks' tables are refused before they are allocated
    monkeypatch.setattr(lat, "MAX_TABLE", 1000)
    with pytest.raises(SizeLimitError, match="table of 4000 rows and 301 columns"):
        ladder_law(mu, UPWARD, 4000)
    with pytest.raises(SizeLimitError, match="table of 4000 rows and 1 columns"):
        ladder_law(mu, DOWNWARD, 4000)
    # a table of exactly MAX_TABLE entries fits
    assert ladder_law(mu, DOWNWARD, 1000).masses.shape == (1000, 1)


def test_walk_kernel_matches_public_loop_on_simple_walk():
    # dyadic masses: every tail is exact, cut or not
    for side in (UPWARD, DOWNWARD):
        for horizon in range(1, 21):
            _assert_walk_matches_public_loop(
                lattice(-1, [0.5, 0.0, 0.5]), side, horizon, tail_bytes=True
            )


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


def _old_stabilized_growth(data, lam):
    """(growth or nan, stabilized) at one lambda."""
    logs = _old_log_restricted_mgf(data, lam)
    finite = np.isfinite(logs)
    if finite.sum() < 6:
        return np.nan, False
    ratios = np.exp(np.diff(logs[finite]))
    last = ratios[-4:]
    growth = float(ratios[-1])
    stabilized = float(last.max() - last.min()) <= 1e-8 * max(1.0, abs(growth))
    return (growth if stabilized else np.nan), stabilized


def _old_exp_moment_probes(data):
    """(lam, growth or nan, stabilized, certified) rows and the witness."""
    rows, witness = [], None
    for lam in _lambda_grid(data):
        growth, stabilized = _old_stabilized_growth(data, lam)
        certified = stabilized and growth > 1.0 + 1e-9
        if certified and witness is None:
            witness = float(lam)
        rows.append((lam, growth, stabilized, certified))
    return np.array(rows, dtype=float), witness


def _old_mgf_ratio_points(data, lambdas):
    """The exponential fit's (points, estimates, E[e^{lam X}; X >= 0]) under
    the certificate's rule, one lambda at a time."""
    pts, est, known = [], [], []
    for lam in lambdas:
        growth, stabilized = _old_stabilized_growth(data, lam)
        if stabilized:
            pts.append(float(lam))
            est.append(growth)
            known.append(float(np.exp(_old_log_restricted_mgf(data, lam)[0])))
    return np.array(pts), np.array(est), np.array(known)


def _mgf_ratio_points(data, lambdas):
    """The same triple as ``recover_exponential`` forms it."""
    growth, stabilized = _stabilized_growth(data, lambdas)
    points = lambdas[stabilized]
    known = np.exp(log_restricted_mgf(data, points, 1))
    return points, growth[stabilized], known


def _assert_probes_match(data):
    """The probes equal their every-row forms bit for bit."""
    grid = _lambda_grid(data)
    # the log-MGF rows that the growth rates are taken from
    got = [log_restricted_mgf(data, grid, n) for n in range(1, data.horizon + 1)]
    want = np.array([_old_log_restricted_mgf(data, lam) for lam in grid]).T
    assert np.array(got).tobytes() == want.tobytes()
    rep = exp_moment_conditions(data)
    assert rep.b_witness == _old_exp_moment_probes(data)[1]
    assert rep.lambda_cap == grid[-1]
    lambdas = np.unique(np.concatenate([grid, np.geomspace(grid[0] / 20.0, grid[-1], 40)]))
    got = _mgf_ratio_points(data, lambdas)
    ref = _old_mgf_ratio_points(data, lambdas)
    for a, b in zip(got, ref, strict=True):
        assert a.tobytes() == b.tobytes()


# sub-distributions on 0..4, the empty measure included
_half_line_powers = st.one_of(
    st.just(zero_measure()),
    st.tuples(st.integers(0, 4), st.lists(_weights, min_size=1, max_size=5))
    .filter(lambda t: t[1][0] > 0.0 and t[1][-1] > 0.0)
    .map(lambda t: lattice(t[0], np.asarray(t[1]) / (1.5 * sum(t[1])))),
)


@settings(max_examples=60, deadline=None)
@given(step_laws, st.integers(1, 8))
# the bench's exponential members and a law without a witness
@example(two_point(-2, 1, 0.85).dist, 40)
@example(two_point(-3, 1, 0.9).dist, 40)
@example(power_tail_pair().dist, 40)
def test_probes_match_every_row_form_on_walk_data(mu, horizon):
    _assert_probes_match(truncated_data(mu, horizon))


@settings(max_examples=60, deadline=None)
@given(st.lists(_half_line_powers, min_size=1, max_size=8))
def test_probes_match_every_row_form_on_ragged_data(powers):
    _assert_probes_match(data_from_powers(powers))


@pytest.mark.parametrize("horizon", [1, 3, 8])
def test_probes_match_every_row_form_on_all_zero_data(horizon):
    _assert_probes_match(data_from_powers([zero_measure()] * horizon))


def test_probes_match_every_row_form_with_zero_power_in_the_middle():
    powers = [lattice(0, [0.2, 0.3, 0.1]) for _ in range(8)]
    powers[3] = zero_measure()
    powers[6] = lattice(2, [0.4])
    _assert_probes_match(data_from_powers(powers))


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
    # the certificate again, then the fit: the last five powers at its 41
    # lambdas, and r_1 at the stabilized ones only
    report = recover_exponential(data)
    kept = report.diagnostics["n_transform_points"]
    assert kept < 41
    want = [(n, 12) for n in range(36, 41)] + [(n, 41) for n in range(36, 41)]
    assert calls == want + [(1, kept)]


# -- the log-sum-exp kernel against scipy's, the oracle it reproduces --------


def _scipy_log_restricted_mgf(data, lambdas, n):
    r = data.restricted_power(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logw = np.log(r.weights)
        return logsumexp(np.multiply.outer(lambdas, r.indices()) + logw, axis=1)


def _assert_mgf_is_scipy_logsumexp(data, lambdas):
    lambdas = np.asarray(lambdas, dtype=float)
    for n in range(1, data.horizon + 1):
        if data.restricted_power(n).is_zero:
            continue
        # inf * 0 and inf - inf in the exponents warn on both sides
        with np.errstate(invalid="ignore", over="ignore"):
            got = log_restricted_mgf(data, lambdas, n)
        want = _scipy_log_restricted_mgf(data, lambdas, n)
        # bit for bit, the sign of a zero and NaN positions included
        assert got.tobytes() == want.tobytes(), n


@pytest.mark.parametrize(
    "power, lambdas",
    [
        # at lam = 0 every equal weight is a tied maximum
        (lattice(0, [0.25, 0.25, 0.25, 0.25]), [0.0, 1e-3, -1e-3]),
        (lattice(2, [0.2, 0.2, 0.2]), [0.0, 0.5]),
        # two tied maxima beside smaller terms: counting one tie is off by an ulp
        (lattice(0, [0.35, 0.05, 0.35, 0.15]), [0.0]),
        # interior zero weights enter the rows as -inf exponents
        (lattice(1, [0.3, 0.0, 0.0, 0.2, 0.0, 0.1]), [0.0, 0.5, 2.0, -3.0]),
        # one atom: the row is its own maximum and nothing else
        (lattice(3, [0.4]), [0.0, 0.7, 5.0]),
        (lattice(0, [0.6]), [0.0, 2.0]),
        # the maximum at k = 0: a heavy atom at the origin, small lambdas
        (lattice(0, [0.9, 0.05, 0.05]), [1e-4, 0.01, 0.1, -1.0]),
        # rows that are not finite take scipy's log(sum(exp)) fallback
        (lattice(0, [0.5, 0.0, 0.25]), [np.inf, -np.inf, np.nan, 1e308]),
        (lattice(1, [0.5, 0.25]), [np.inf, -np.inf, 1e308, -1e308]),
    ],
    ids=[
        "ties_at_zero",
        "ties_off_zero",
        "ties_among_others",
        "interior_zeros",
        "single_atom",
        "single_atom_at_zero",
        "max_at_zero",
        "nonfinite_rows_with_zero",
        "nonfinite_rows",
    ],
)
def test_log_restricted_mgf_is_scipy_logsumexp_on_edge_cases(power, lambdas):
    _assert_mgf_is_scipy_logsumexp(data_from_powers([power, power]), lambdas)


@settings(max_examples=60, deadline=None)
@given(
    step_laws,
    st.integers(1, 8),
    st.lists(st.sampled_from([0.0, 0.5, -0.5]) | st.floats(-50.0, 50.0), min_size=1),
)
def test_log_restricted_mgf_is_scipy_logsumexp_on_walk_data(mu, horizon, lambdas):
    _assert_mgf_is_scipy_logsumexp(truncated_data(mu, horizon), lambdas)
