import numpy as np
import pytest

from whlab import (
    DOWNWARD,
    UPWARD,
    DomainError,
    InsufficientSamplesError,
    censored_z,
    compare_empirical,
    delta,
    ladder_law,
    lattice,
    sample_ladder,
    walk_sample,
)
from whlab.montecarlo import EmpiricalLadder

from conftest import CORPUS_SEED


def test_same_seed_reproduces_counts_exactly():
    mu = lattice(-1, [0.5, 0.0, 0.5])
    a = sample_ladder(mu, UPWARD, 2000, max_steps=200, seed=7)
    b = sample_ladder(mu, UPWARD, 2000, max_steps=200, seed=7)
    assert a.counts == b.counts
    assert a.censored_count == b.censored_count


def test_different_seed_changes_counts():
    mu = lattice(-1, [0.5, 0.0, 0.5])
    a = sample_ladder(mu, UPWARD, 2000, max_steps=200, seed=7)
    b = sample_ladder(mu, UPWARD, 2000, max_steps=200, seed=8)
    assert a.counts != b.counts


def test_single_walks_aggregate_to_batch():
    mu = lattice(-1, [0.3, 0.2, 0.5])
    n = 300
    batch = sample_ladder(mu, DOWNWARD, n, max_steps=50, seed=11)
    counts = {}
    censored = 0
    for i in range(n):
        w = walk_sample(mu, DOWNWARD, 11, i, max_steps=50)
        if w.censored:
            censored += 1
        else:
            cell = (w.ladder_epoch, w.ladder_height)
            counts[cell] = counts.get(cell, 0) + 1
    assert counts == batch.counts
    assert censored == batch.censored_count


def test_frozen_symmetric_walk_statistics():
    mu = lattice(-1, [0.5, 0.0, 0.5])
    emp = sample_ladder(mu, UPWARD, 100_000, max_steps=2000, seed=CORPUS_SEED)
    law = ladder_law(mu, UPWARD, 2000)
    rep = compare_empirical(law, emp)
    assert rep.passed
    assert rep.n_cells == 73
    assert emp.censored_count == 917
    assert rep.max_z == pytest.approx(2.4408, abs=5e-5)
    assert censored_z(law, emp) == pytest.approx(0.8425, abs=5e-5)


def test_perturbed_law_fails_comparison():
    mu = lattice(-1, [0.5, 0.0, 0.5])
    biased = lattice(-1, [0.52, 0.0, 0.48])
    emp = sample_ladder(mu, UPWARD, 50_000, max_steps=500, seed=3)
    rep = compare_empirical(ladder_law(biased, UPWARD, 500), emp)
    assert not rep.passed


def test_min_expected_filters_cells():
    mu = lattice(-1, [0.4, 0.0, 0.6])
    emp = sample_ladder(mu, UPWARD, 5000, max_steps=100, seed=1)
    law = ladder_law(mu, UPWARD, 100)
    rep = compare_empirical(law, emp)
    assert rep.n_cells < np.count_nonzero(law.masses)
    assert all(c[3] >= 25.0 or c[2] >= 25.0 for c in rep.cells)


def test_deterministic_walk_has_zero_variance_cells():
    emp = sample_ladder(delta(1), UPWARD, 1000, max_steps=10, seed=0)
    assert emp.counts == {(1, 1): 1000}
    rep = compare_empirical(ladder_law(delta(1), UPWARD, 10), emp)
    assert rep.max_z == 0.0
    assert rep.n_cells == 1


def test_insufficient_samples_raises():
    mu = lattice(-1, [0.5, 0.0, 0.5])
    emp = sample_ladder(mu, UPWARD, 10, max_steps=50, seed=5)
    with pytest.raises(InsufficientSamplesError):
        compare_empirical(ladder_law(mu, UPWARD, 50), emp)


def test_empirical_ladder_validates_totals():
    with pytest.raises(DomainError):
        EmpiricalLadder(UPWARD, {(1, 0): 3}, 5, 1, 10, 0)


def test_censoring_requires_matching_horizon():
    mu = lattice(-1, [0.5, 0.0, 0.5])
    emp = sample_ladder(mu, UPWARD, 100, max_steps=200, seed=2)
    with pytest.raises(DomainError):
        compare_empirical(ladder_law(mu, UPWARD, 100), emp)
    for law in (ladder_law(mu, UPWARD, 100), ladder_law(mu, UPWARD, 201)):
        with pytest.raises(DomainError):
            censored_z(law, emp)
    with pytest.raises(DomainError):
        censored_z(ladder_law(mu, DOWNWARD, 200), emp)


def test_improper_step_distribution_rejected():
    with pytest.raises(DomainError):
        sample_ladder(lattice(-1, [0.5, 0.0, 0.4]), UPWARD, 100)


def test_side_token_validated():
    with pytest.raises(DomainError):
        sample_ladder(delta(1), "sideways", 10)
