"""Matrix-pencil fitting of finite geometric mixtures."""

import numpy as np
import pytest

from whlab.errors import DomainError
from whlab.expfit import eval_exp_sum, pencil_fit


def test_single_geometric_exact():
    seq = 0.4 * 0.5 ** np.arange(60)
    fit = pencil_fit(seq)
    assert len(fit.nodes) == 1
    assert fit.nodes[0] == pytest.approx(0.5, abs=1e-12)
    assert fit.weights[0] == pytest.approx(0.4, abs=1e-12)
    assert fit.residual <= 1e-12


def test_two_well_separated_atoms():
    n = np.arange(80)
    seq = 0.25 * 0.3**n + 0.55 * 0.7**n
    fit = pencil_fit(seq)
    order = np.argsort(fit.nodes)
    assert np.allclose(fit.nodes[order], [0.3, 0.7], atol=1e-8)
    assert np.allclose(fit.weights[order], [0.25, 0.55], atol=1e-8)


def test_model_order_from_singular_gap():
    n = np.arange(70)
    rng = np.random.default_rng(5)
    seq = 0.6 * 0.45**n + 1e-13 * rng.standard_normal(70)
    fit = pencil_fit(seq)
    assert len(fit.nodes) == 1
    assert fit.nodes[0] == pytest.approx(0.45, abs=1e-6)


def test_three_atoms():
    n = np.arange(120)
    seq = 0.2 * 0.2**n + 0.3 * 0.5**n + 0.1 * 0.8**n
    fit = pencil_fit(seq)
    order = np.argsort(fit.nodes)
    assert np.allclose(fit.nodes[order], [0.2, 0.5, 0.8], atol=1e-6)
    assert np.allclose(fit.weights[order], [0.2, 0.3, 0.1], atol=1e-6)


def test_eval_round_trip():
    nodes = np.array([0.35, 0.6])
    weights = np.array([0.5, 0.2])
    idx = np.arange(40)
    seq = eval_exp_sum(nodes, weights, idx)
    fit = pencil_fit(seq)
    back = eval_exp_sum(fit.nodes, fit.weights, idx)
    assert np.max(np.abs(back - seq)) <= 1e-10


def test_start_index_offsets_weights():
    # a tail seq[k] = w c^{k+4} is fitted as g(k), so the reported weight
    # is the one seen at the start of the tail
    full = 0.7 * 0.55 ** np.arange(50)
    fit = pencil_fit(full[4:])
    assert fit.nodes[0] == pytest.approx(0.55, abs=1e-10)
    assert fit.weights[0] == pytest.approx(0.7 * 0.55**4, abs=1e-9)


def test_too_short_sequence_rejected():
    with pytest.raises(DomainError):
        pencil_fit(np.array([1.0]))
