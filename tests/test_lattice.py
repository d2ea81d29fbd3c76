"""Lattice measure arithmetic against exact-rational oracles."""

import importlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whlab import (
    DOWNWARD,
    UPWARD,
    LatticeDist,
    convolve,
    delta,
    geometric_mixture,
    ladder_law,
    lattice,
    power_tail_pair,
    split_nonneg,
    sup_distance,
    tv_distance,
    two_point,
    uniform_window,
    zero_measure,
)
from whlab.errors import DomainError, SizeLimitError
from whlab.lattice import _cut_total, _trim

from conftest import random_corpus
from reference import convolution_power, convolve_exact


def test_canonical_window_trims_exact_zero_edges():
    d = lattice(-2, [0.0, 0.25, 0.0, 0.75, 0.0])
    assert d.min_index == -1
    assert d.max_index == 1
    assert d.mass(0) == 0.0
    assert d.total == 1.0


def test_tiny_positive_edge_mass_survives():
    d = lattice(0, [2.0**-200, 1.0 - 2.0**-200])
    assert d.min_index == 0
    assert d.mass(0) == 2.0**-200


def test_negative_weight_clamp_and_raise():
    d = lattice(0, [-1e-12, 1.0])
    assert d.mass(0) == 0.0
    with pytest.raises(DomainError):
        lattice(0, [-1e-9, 1.0])


@pytest.mark.parametrize(
    "weights",
    [[float("nan")], [0.5, float("nan"), 0.5], [float("inf")], [0.5, float("-inf")]],
)
def test_non_finite_weights_rejected(weights):
    with pytest.raises(DomainError, match="non-finite"):
        lattice(0, weights)
    with pytest.raises(DomainError):
        LatticeDist(0, np.array(weights))


def test_non_canonical_direct_construction_rejected():
    with pytest.raises(DomainError):
        LatticeDist(0, np.array([0.0, 1.0]))


def test_two_dimensional_weights_rejected():
    with pytest.raises(DomainError, match="^weights must be a 1-d array$"):
        LatticeDist(0, np.ones((2, 2)))
    with pytest.raises(DomainError, match="^weights must be a 1-d sequence$"):
        lattice(0, [[0.5], [0.5]])


def test_repr_names_the_window_and_total():
    assert repr(zero_measure()) == "LatticeDist(zero)"
    assert repr(lattice(-1, [0.25, 0.0, 0.5])) == "LatticeDist([-1, 1], total=0.75)"


def test_delta_and_zero_measure():
    d = delta(3)
    assert (d.offset, d.weights.tolist()) == (3, [1.0])
    z = zero_measure()
    assert z.is_zero
    assert (z.offset, z.weights.size) == (0, 0)
    assert z.total == 0.0


def test_mass_mean_tail():
    d = lattice(-1, [0.2, 0.3, 0.5])
    assert d.mass(-1) == 0.2
    assert d.mass(2) == 0.0
    assert float(np.dot(d.indices(), d.weights)) == pytest.approx(-0.2 + 0.5, abs=1e-15)
    assert float(d.weights[d.indices() > 0].sum()) == pytest.approx(0.5, abs=1e-15)


def _frac_oracle(a, b):
    off, coeffs = convolve_exact(a, b)
    vals = [float(c) for c in coeffs]
    return off, vals


def test_convolve_matches_exact_rational_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        lo_a, lo_b = int(rng.integers(-4, 2)), int(rng.integers(-3, 3))
        wa = rng.random(int(rng.integers(1, 6)))
        wb = rng.random(int(rng.integers(1, 6)))
        a, b = lattice(lo_a, wa), lattice(lo_b, wb)
        c = convolve(a, b)
        off, vals = _frac_oracle(a, b)
        assert c.min_index == off
        for i, v in enumerate(vals):
            assert c.mass(off + i) == pytest.approx(v, abs=1e-15, rel=1e-13)


def test_singleton_convolution_is_exact_shift():
    mu = lattice(-2, [0.125, 0.5, 0.25, 0.0625, 0.0625])
    shifted = convolve(delta(3), mu)
    assert shifted.min_index == 1
    assert np.array_equal(shifted.weights, mu.weights)


def test_convolution_power_matches_iterated():
    mu = lattice(-1, [0.3, 0.2, 0.5])
    acc = delta(0)
    for n in range(7):
        p = convolution_power(mu, n)
        assert sup_distance(p, acc) <= 1e-14
        acc = convolve(acc, mu)


def test_convolution_power_zero_is_delta():
    p = convolution_power(lattice(-1, [0.5, 0.0, 0.5]), 0)
    assert (p.offset, p.weights.size) == (0, 1)
    assert p.total == 1.0


def test_split_nonneg_partitions_mass():
    mu = lattice(-2, [0.1, 0.2, 0.3, 0.4])
    neg, pos = split_nonneg(mu)
    assert pos.min_index >= 0
    assert neg.max_index < 0
    assert pos.total + neg.total == pytest.approx(mu.total, abs=1e-15)
    assert split_nonneg(mu)[1].total == pytest.approx(pos.total, abs=1e-15)


def test_window_limit_enforced(monkeypatch):
    # whlab.lattice is the re-exported function, so patch the module itself
    monkeypatch.setattr(importlib.import_module("whlab.lattice"), "MAX_WINDOW", 1 << 10)
    wide = lattice(0, np.full(1 << 11, 2.0**-11))
    with pytest.raises(SizeLimitError, match="window of 4095 entries exceeds maximum 1024"):
        convolve(wide, wide)


# each generator family at a window of `length` entries, before trimming
_WINDOWED_GENERATORS = {
    "two_point": lambda length: two_point(-1, length - 2, 0.5),
    "uniform_window": lambda length: uniform_window(0, length - 1),
    "geometric_mixture": lambda length: geometric_mixture(
        (0.5,), (1.0,), cutoff=length - 2
    ),
    "power_tail_pair": lambda length: power_tail_pair(cutoff=length - 3),
}


@pytest.mark.parametrize("family", sorted(_WINDOWED_GENERATORS))
def test_generator_window_checked_before_allocation(monkeypatch, family):
    make = _WINDOWED_GENERATORS[family]
    with pytest.raises(DomainError, match="exceeds maximum"):
        make(1 << 50)  # 8 PiB of weights, a MemoryError if allocated
    # the limit is read at call time
    monkeypatch.setattr(importlib.import_module("whlab.lattice"), "MAX_WINDOW", 1 << 10)
    make(1 << 10)
    with pytest.raises(DomainError, match="1025 entries exceeds maximum 1024"):
        make((1 << 10) + 1)


def test_fft_path_matches_exact_oracle(monkeypatch):
    monkeypatch.setattr(importlib.import_module("whlab.lattice"), "FFT_THRESHOLD", 8)
    rng = np.random.default_rng(5)
    # interior zeros leave FFT noise in the gaps, which must not go negative
    a = lattice(-3, np.concatenate([rng.random(6), np.zeros(5), rng.random(6)]) / 6)
    b = lattice(2, [0.5, 0.0, 0.0, 0.0, 0.25, 0.0, 0.25])
    got = convolve(a, b)
    offset, exact = convolve_exact(a, b)
    assert got.min_index == offset
    assert len(got.weights) == len(exact)
    assert max(abs(w - float(x)) for w, x in zip(got.weights, exact)) <= 1e-15
    assert got.weights.min() >= 0.0


@pytest.mark.parametrize("offset", [0.5, 1.0, True])
def test_constructor_rejects_non_integer_offset(offset):
    with pytest.raises(DomainError, match="offset must be an integer"):
        LatticeDist(offset, np.ones(1))


def test_constructor_stores_numpy_integer_offset_as_int():
    d = LatticeDist(np.int64(-3), np.ones(1))
    assert type(d.offset) is int
    assert d.offset == -3


@pytest.mark.parametrize("offset, weights", [(True, [0.0, 1.0]), (0.5, [0.0])])
def test_lattice_checks_offset_before_trimming(offset, weights):
    # trimming would turn True + 1 into the int 2 and drop an all-zero offset
    with pytest.raises(DomainError, match="offset must be an integer"):
        lattice(offset, weights)


def test_distances():
    a = lattice(0, [0.5, 0.5])
    b = lattice(0, [0.25, 0.5, 0.25])
    assert tv_distance(a, a) == 0.0
    assert tv_distance(a, b) == pytest.approx(0.25, abs=1e-15)
    assert sup_distance(a, b) == pytest.approx(0.25, abs=1e-15)
    assert tv_distance(zero_measure(), zero_measure()) == 0.0
    assert sup_distance(zero_measure(), zero_measure()) == 0.0


def test_json_round_trip_is_exact():
    mu = lattice(-3, np.random.default_rng(3).random(7))
    doc = json.loads(json.dumps(mu.to_dict()))
    assert sorted(doc) == ["offset", "weights"]
    back = LatticeDist.from_dict(doc)
    assert back.offset == mu.offset
    assert np.array_equal(back.weights, mu.weights)


def test_from_dict_rejects_bad_payload():
    with pytest.raises(DomainError):
        LatticeDist.from_dict({"offset": 0})


@pytest.mark.parametrize(
    "build",
    [
        lambda: LatticeDist.from_dict({"offset": 0, "weights": "ab"}),
        lambda: LatticeDist.from_dict({"offset": 0, "weights": {"a": 1}}),
        lambda: lattice(0, ["x"]),
    ],
    ids=["string", "object", "string_entry"],
)
def test_non_numeric_weights_are_a_domain_error(build):
    # a bare ValueError or TypeError would escape the CLI's exit-2 handler
    with pytest.raises(DomainError, match="^weights must be numbers: "):
        build()


small_dists = st.builds(
    lambda lo, w: lattice(lo, np.asarray(w) / max(sum(w), 1e-9)),
    st.integers(-4, 2),
    st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=6).filter(
        lambda w: sum(w) > 1e-6
    ),
)


@settings(max_examples=60, deadline=None)
@given(small_dists, small_dists)
def test_convolve_mass_is_product(a, b):
    c = convolve(a, b)
    assert c.total == pytest.approx(a.total * b.total, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(small_dists, small_dists)
def test_convolve_support_adds(a, b):
    c = convolve(a, b)
    if a.is_zero or b.is_zero:
        assert c.is_zero
    else:
        assert c.min_index >= a.min_index + b.min_index
        assert c.max_index <= a.max_index + b.max_index


@settings(max_examples=40, deadline=None)
@given(small_dists, small_dists)
def test_convolve_commutes(a, b):
    assert sup_distance(convolve(a, b), convolve(b, a)) <= 1e-15


@pytest.mark.parametrize(
    "weights, lo, hi",
    [
        ([0.0, 0.5], 1, 2),
        ([0.5, 0.0], 0, 1),
        ([0.0, 0.0, 0.0, 0.5, 0.0, 0.0], 3, 4),
        # more edge zeros than are peeled one by one
        ([0.0] * 7 + [0.5, 0.0, 0.25] + [0.0] * 9, 7, 10),
        ([0.5, 0.0, 0.0, 0.25], 0, 4),
        ([5e-324, 0.0, 0.5, 5e-324], 0, 4),
        ([0.0, 0.0, 5e-324, 0.0], 2, 3),
    ],
)
def test_trim_cuts_exact_edge_zeros_only(weights, lo, hi):
    w = np.array(weights)
    offset, got = _trim(-3, w)
    assert offset == -3 + lo
    assert got.tobytes() == w[lo:hi].tobytes()


@pytest.mark.parametrize("size", [0, 1, 4, 5, 9])
def test_trim_of_all_zeros_is_empty_at_zero(size):
    offset, got = _trim(-3, np.zeros(size))
    assert (offset, got.size) == (0, 0)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(-5, 5),
    st.lists(st.sampled_from([0.0, 0.0, 0.0, 2.0**-200, 0.5]), max_size=12),
)
def test_trim_keeps_first_through_last_nonzero(offset, weights):
    w = np.array(weights)
    keep = np.flatnonzero(w)
    got_offset, got = _trim(offset, w)
    if keep.size:
        assert got_offset == offset + keep[0]
        np.testing.assert_array_equal(got, w[keep[0] : keep[-1] + 1])
    else:
        assert (got_offset, got.size) == (0, 0)


@pytest.mark.parametrize("length", range(1, 8))
def test_cut_total_has_the_bits_of_numpy_sum(length):
    # _cut_total adds fewer than 8 terms as Python floats from the left: the
    # killed walk's tail keeps its bits only while numpy adds such short
    # arrays in the same order (its pairwise blocks start at 8 terms)
    rng = np.random.default_rng(length)
    shape = (2000, length)
    subnormal = rng.integers(1, 2**52, shape) * 2.0**-1074
    draws = [
        rng.random(shape),
        rng.random(shape) * 10.0 ** rng.uniform(-300.0, 0.0, shape),
        rng.random(shape) * (rng.random(shape) < 0.5),
        subnormal,
        np.where(rng.random(shape) < 0.5, subnormal, rng.random(shape) * 2.0**-1000),
    ]
    for rows in draws:
        for a in rows:
            assert _cut_total(a).hex() == float(np.add.reduce(a)).hex()


# tails from before the Python-float cut total, to the bit: the four bench
# `simulate` walks at N = 4000 (every cut piece one entry); corpus laws
# whose cut pieces all have 2 to 7 entries, where summing a piece in
# another order moves a bit; and one with 8-entry pieces, summed by numpy,
# where a fold from the left would move one
_CORPUS = random_corpus(37)
_PINNED_TAILS = [
    (two_point(-1, 1, 0.5).dist, UPWARD, 4000, "0x1.9d5d3bf8a2cdcp-8"),
    (two_point(-2, 1, 0.7).dist, UPWARD, 4000, "0x1.0f0d4d4966895p-27"),
    (two_point(-2, 1, 0.7).dist, DOWNWARD, 4000, "0x1.24924b5ea4898p-3"),
    (two_point(-1, 1, 0.65).dist, UPWARD, 4000, "0x1.e74fb6eaa1c49p-289"),
    (_CORPUS[2], UPWARD, 400, "0x1.c5788fe2ee38ap-116"),
    (_CORPUS[2], DOWNWARD, 400, "0x1.2f69df5256023p-1"),
    (_CORPUS[3], UPWARD, 400, "0x1.839223e968faap-76"),
    (_CORPUS[3], DOWNWARD, 400, "0x1.0159b7aaa6504p-1"),
    (_CORPUS[6], UPWARD, 40, "0x1.1d6283704657ep-2"),
    (_CORPUS[36], UPWARD, 400, "0x1.7a742522fed09p-38"),
    (_CORPUS[36], DOWNWARD, 40, "0x1.6fcdc2c6b72b2p-2"),
]


@pytest.mark.parametrize("case", range(len(_PINNED_TAILS)))
def test_killed_walk_tail_keeps_its_bits(case):
    mu, side, horizon, tail = _PINNED_TAILS[case]
    assert ladder_law(mu, side, horizon).tail.hex() == tail
