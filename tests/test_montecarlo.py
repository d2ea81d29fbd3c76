import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    two_point,
)
from whlab import montecarlo
from whlab.montecarlo import EmpiricalLadder

from conftest import CORPUS_SEED
import reference
from reference import splitmix64_finalizer, walk_by_walk


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
    assert walk_by_walk(mu, DOWNWARD, n, 50, 11) == (
        batch.counts,
        batch.censored_count,
    )


# Laws on [-6, 6]: point masses at -1, 0 and 1, and windows whose atoms
# include exact zeros (interior zeros survive lattice()) and 1e-12.
_ATOMS = st.sampled_from([0.0, 0.0, 1e-12, 0.05, 0.3, 1.0, 2.5])


@st.composite
def _step_laws(draw):
    point = draw(st.sampled_from([None, -1, 0, 1]))
    if point is not None:
        return delta(point)
    lo = draw(st.integers(-6, 6))
    hi = draw(st.integers(lo, 6))
    w = np.array(draw(st.lists(_ATOMS, min_size=hi - lo + 1, max_size=hi - lo + 1)))
    if not w.sum():
        w[0] = 1.0
    return lattice(lo, w / w.sum())


# step counts that end just before, on and just after block boundaries
_BOUNDARY_STEPS = st.sampled_from([1, 2, 3, 7, 8, 9, 63, 64, 65])


@settings(max_examples=60, deadline=None)
@given(
    _step_laws(),
    st.sampled_from([UPWARD, DOWNWARD]),
    st.integers(1, 40),
    _BOUNDARY_STEPS,
    st.integers(0, (1 << 64) - 1),
)
def test_blocked_sampler_matches_walk_by_walk(mu, side, n_samples, max_steps, seed):
    # a 16-element budget gives groups of 16 walks and blocks of width
    # 16 // active, so 1..40 walks run both below and above its width
    with mock.patch.object(montecarlo, "_BLOCK_ELEMENTS", 16):
        emp = sample_ladder(mu, side, n_samples, max_steps=max_steps, seed=seed)
    expected = walk_by_walk(mu, side, n_samples, max_steps, seed)
    assert (emp.counts, emp.censored_count) == expected


@settings(max_examples=20, deadline=None)
@given(
    _step_laws(),
    st.sampled_from([UPWARD, DOWNWARD]),
    st.integers(1, 4),
    _BOUNDARY_STEPS,
    st.integers(0, (1 << 64) - 1),
)
def test_module_budget_sampler_matches_walk_by_walk(
    mu, side, n_samples, max_steps, seed
):
    emp = sample_ladder(mu, side, n_samples, max_steps=max_steps, seed=seed)
    expected = walk_by_walk(mu, side, n_samples, max_steps, seed)
    assert (emp.counts, emp.censored_count) == expected


# sha256 of repr((sorted(counts.items()), censored_count)) for the bench
# simulate members at 5,000 walks and 300 steps with seed CORPUS_SEED, taken
# with the step-at-a-time sampler that block evaluation replaced
_PINNED = [
    (
        (-1, 1, 0.5),
        UPWARD,
        "03d9b3cfb2ea93d76fefba1648884dc1732f212239cac4211acb274176741650",
    ),
    (
        (-2, 1, 0.7),
        UPWARD,
        "4dd81c9b8e67a1cc9b733edf032ff0477b853ee6d91f92746e3fa1b70825ae23",
    ),
    (
        (-2, 1, 0.7),
        DOWNWARD,
        "e38ce81b7bd9e2780e5abccbe2914194f94966e82f5a0183f0f136eb70ff9b3a",
    ),
    (
        (-1, 1, 0.65),
        UPWARD,
        "f278af004f12dc86a663b7e7a5fd208a3cda9f21920fbd1871adc08b447aba76",
    ),
]


@pytest.mark.parametrize("law, side, digest", _PINNED)
def test_bench_members_keep_their_counts(law, side, digest):
    emp = sample_ladder(
        two_point(*law).dist, side, 5000, max_steps=300, seed=CORPUS_SEED
    )
    body = repr((sorted(emp.counts.items()), emp.censored_count)).encode()
    assert hashlib.sha256(body).hexdigest() == digest


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
        EmpiricalLadder(UPWARD, {(1, 0): 3}, 5, 1, 10)


def test_censoring_requires_matching_horizon():
    mu = lattice(-1, [0.5, 0.0, 0.5])
    emp = sample_ladder(mu, UPWARD, 100, max_steps=200, seed=2)
    # a longer law would score epochs the sampler never drew
    for law in (ladder_law(mu, UPWARD, 100), ladder_law(mu, UPWARD, 201)):
        with pytest.raises(DomainError, match="differs from the sampler's max_steps 200"):
            compare_empirical(law, emp)
        with pytest.raises(DomainError):
            censored_z(law, emp)
    for check in (compare_empirical, censored_z):
        with pytest.raises(DomainError, match="^sides differ: downward vs upward$"):
            check(ladder_law(mu, DOWNWARD, 200), emp)


def test_improper_step_distribution_rejected():
    with pytest.raises(DomainError):
        sample_ladder(lattice(-1, [0.5, 0.0, 0.4]), UPWARD, 100)


def test_side_token_validated():
    with pytest.raises(DomainError):
        sample_ladder(delta(1), "sideways", 10)


# lattice(-1, [0.5, 0.5 + 5e-11, 1e-12]) is proper within MASS_TOL, and its
# cumulative sum passes 1.0 before the last entry is forced to 1.0
_LOOKUP_LAWS = [
    lattice(-1, [0.5, 0.5 + 5e-11, 1e-12]),
    lattice(-2, [0.3, 0.0, 0.0, 0.7]),
    lattice(-3, [0.25, 0.0, 1e-12, 0.25, 0.0, 0.5 - 1e-12]),
    lattice(0, [0.5, 1e-15, 1e-15, 1e-15, 0.5 - 3e-15]),  # 4 thresholds, 1 bucket
    lattice(-6, np.full(13, 1.0 / 13)),
    delta(0),
]


@pytest.mark.parametrize("mu", _LOOKUP_LAWS)
def test_integer_step_lookup_matches_float_searchsorted(mu):
    values, cdf = montecarlo._step_tables(mu)
    top = 1 << 53
    xs = {0, top - 1}
    for c in cdf:
        threshold = math.ceil(float(c) * top)  # exact: c * 2**53 is a float
        xs.update(x for x in (threshold - 1, threshold) if 0 <= x < top)
    x = np.array(sorted(xs), dtype=np.int64)
    expected = np.searchsorted(cdf, x.astype(np.float64) * 2.0**-53, side="right")
    bits = (x.astype(np.uint64) << np.uint64(11)) | np.uint64(0x5A5)
    # moves reads hashes before _mix64's last round, z ^= z >> 31, which
    # z ^ (z >> 31) ^ (z >> 62) undoes
    unfinished = bits ^ (bits >> np.uint64(31)) ^ (bits >> np.uint64(62))
    for dtype in (np.int32, np.int64):
        lookup = montecarlo._StepLookup(values, cdf, dtype)
        np.testing.assert_array_equal(lookup.index(x), expected)
        out = np.empty(x.size, dtype)
        moves = lookup.moves(unfinished, np.empty_like(unfinished), out)
        assert moves.dtype == dtype
        np.testing.assert_array_equal(moves, values[expected])


def test_partial_mix_keeps_top_bits_and_finishes_to_mix64():
    rng = np.random.default_rng(CORPUS_SEED)
    keys = rng.integers(0, 1 << 64, size=100_000, dtype=np.uint64)
    full = montecarlo._mix64(keys.copy())
    top = montecarlo._mix64_top(keys.copy(), np.empty_like(keys))
    # the guide index, and every bit the last round leaves as it is
    np.testing.assert_array_equal(top >> np.uint64(52), full >> np.uint64(52))
    np.testing.assert_array_equal(top >> np.uint64(33), full >> np.uint64(33))
    np.testing.assert_array_equal(montecarlo._mix64_finish(top.copy()), full)
    # a law with 200 atoms sends about one hash in twenty down the loose path
    mu = lattice(-100, np.full(200, 1.0 / 200))
    values, cdf = montecarlo._step_tables(mu)
    u = (full >> np.uint64(11)).astype(np.float64) * 2.0**-53
    expected = values[np.searchsorted(cdf, u, side="right")]
    lookup = montecarlo._StepLookup(values, cdf, np.int32)
    assert (lookup.guide_moves[top >> np.uint64(52)] == lookup.loose_mark).sum() > 2000
    moves = lookup.moves(top, np.empty_like(top), np.empty(top.size, np.int32))
    np.testing.assert_array_equal(moves, expected)


def test_mix_helpers_match_reference_splitmix64():
    # the first output of splitmix64 seeded with 0
    assert splitmix64_finalizer(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF
    rng = np.random.default_rng(CORPUS_SEED)
    keys = np.concatenate(
        [
            np.array([0, 1, 0x9E3779B97F4A7C15, (1 << 64) - 1], dtype=np.uint64),
            rng.integers(0, 1 << 64, size=2000, dtype=np.uint64),
        ]
    )
    want = np.array([splitmix64_finalizer(int(k)) for k in keys], dtype=np.uint64)
    np.testing.assert_array_equal(montecarlo._mix64(keys.copy()), want)
    top = montecarlo._mix64_top(keys.copy(), np.empty_like(keys))
    # the last round, z ^= z >> 31, is all that top still lacks
    assert [int(z) ^ (int(z) >> 31) for z in top] == [int(w) for w in want]
    np.testing.assert_array_equal(montecarlo._mix64_finish(top), want)


def test_narrow_positions_cannot_overflow():
    # a walk down to -1 crosses at step 1; one up to 2**16 would need 2**16 + 1
    # more steps down, so it never crosses, and (max_steps + 1) * 2**16
    # passes int32
    mu = two_point(-1, 1 << 16, 0.5).dist
    long = sample_ladder(mu, DOWNWARD, 64, max_steps=(1 << 16) + 1, seed=5)
    short = sample_ladder(mu, DOWNWARD, 64, max_steps=1, seed=5)
    assert (long.counts, long.censored_count) == (short.counts, short.censored_count)


def test_positions_past_int64_rejected():
    # upward from 0 by -2**50 a step never crosses, but 2**13 steps reach
    # -2**63 and one more would wrap positive
    with pytest.raises(DomainError, match="overflow int64"):
        sample_ladder(delta(-(1 << 50)), UPWARD, 3, max_steps=1 << 14)
    emp = sample_ladder(delta(-(1 << 50)), UPWARD, 3, max_steps=(1 << 12) - 2)
    assert (emp.counts, emp.censored_count) == ({}, 3)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seed": 1.5},
        {"seed": -1},
        {"seed": 1 << 64},
        {"seed": True},
        {"max_steps": True},
        {"max_steps": 0},
        {"max_steps": 2.0},
        {"n_samples": 0},
        {"n_samples": 10.0},
    ],
    ids=repr,
)
def test_sample_ladder_rejects_bad_integers(kwargs):
    args = {"n_samples": 10, "max_steps": 5, "seed": 0, **kwargs}
    with pytest.raises(DomainError):
        sample_ladder(delta(1), UPWARD, **args)


def test_numpy_integers_and_extreme_seeds_accepted():
    mu = lattice(-1, [0.5, 0.0, 0.5])
    for seed in (0, (1 << 64) - 1):
        a = sample_ladder(mu, UPWARD, np.int64(50), max_steps=np.uint16(20), seed=seed)
        b = walk_by_walk(mu, UPWARD, 50, 20, seed)
        assert (a.counts, a.censored_count) == b
    assert sample_ladder(mu, UPWARD, 50, seed=np.uint64(7)).counts == (
        sample_ladder(mu, UPWARD, 50, seed=7).counts
    )


def test_reference_sampler_shares_no_code_with_the_sampler():
    # a fault in a helper both used would hide from the walk-by-walk tests
    for name, obj in vars(reference).items():
        assert obj is not montecarlo, name
        assert getattr(obj, "__module__", None) != montecarlo.__name__, name
