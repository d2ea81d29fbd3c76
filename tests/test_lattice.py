"""Lattice measure arithmetic against exact-rational oracles."""

import importlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whlab import (
    LatticeDist,
    convolution_power,
    convolve,
    delta,
    eval_transform,
    lattice,
    restrict_nonneg,
    split_nonneg,
    sup_distance,
    tv_distance,
    zero_measure,
)
from whlab.errors import DomainError, SizeLimitError
from whlab.lattice import _trim, convolve_exact


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
    assert restrict_nonneg(mu).total == pytest.approx(pos.total, abs=1e-15)


def test_window_limit_enforced(monkeypatch):
    # whlab.lattice is the re-exported function, so patch the module itself
    monkeypatch.setattr(importlib.import_module("whlab.lattice"), "MAX_WINDOW", 1 << 10)
    wide = lattice(0, np.full(1 << 11, 2.0**-11))
    with pytest.raises(SizeLimitError):
        convolve(wide, wide)


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


def test_eval_transform_characteristic():
    mu = lattice(-1, [0.25, 0.25, 0.5])
    t = 0.7
    direct = sum(mu.mass(k) * np.exp(1j * t * k) for k in range(-1, 2))
    point = eval_transform(mu, np.exp(1j * t))
    assert point == pytest.approx(direct, abs=1e-15)


def test_eval_transform_mgf():
    mu = lattice(-1, [0.2, 0.0, 0.8])
    want = 0.2 * np.exp(-0.5) + 0.8 * np.exp(0.5)
    assert eval_transform(mu, np.exp(0.5)) == pytest.approx(want, abs=1e-14)


def test_distances():
    a = lattice(0, [0.5, 0.5])
    b = lattice(0, [0.25, 0.5, 0.25])
    assert tv_distance(a, a) == 0.0
    assert tv_distance(a, b) == pytest.approx(0.25, abs=1e-15)
    assert sup_distance(a, b) == pytest.approx(0.25, abs=1e-15)


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
