"""Shared corpora for the test suite.

The random corpus is seeded once and reused session-wide; acceptance
criteria and unit tests must see the same distributions.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from whlab import LatticeDist, TruncatedData, lattice, truncated_data
from whlab.generators import power_tail_pair

CORPUS_SEED = 20260815

SRC = Path(__file__).resolve().parent.parent / "src"

acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def child_env() -> dict[str, str]:
    """This process's environment with the checkout's ``src`` first on
    PYTHONPATH, so that a child interpreter imports the same whlab."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def random_corpus(count: int, seed: int = CORPUS_SEED) -> list[LatticeDist]:
    """Proper distributions with windows inside [-5, 5] straddling zero."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        lo = int(rng.integers(-5, 0))
        hi = int(rng.integers(1, 6))
        w = rng.random(hi - lo + 1)
        w /= w.sum()
        out.append(lattice(lo, w))
    return out


def cm_shallow_window_law() -> LatticeDist:
    """Masses on -4..-1 under a three-atom completely monotone positive part.

    Every full-rank lag window is too shallow: the widest one solves the
    correlation system only to 6.8e-8. The first window that solves it
    within CONSISTENCY_TOL is four lags deep, at design rank 3, so the
    data do not determine the masses.
    """
    k = np.arange(188)
    c = np.array([0.17, 0.24, 0.29])
    w = np.array([0.14, 0.68, 0.18])
    p = (w[:, None] * (1.0 - c[:, None]) * c[:, None] ** k).sum(axis=0)
    return lattice(-4, np.concatenate([[0.2, 0.16, 0.1, 0.05], 0.49 * p / p.sum()]))


def cm_unsolved_data(horizon: int) -> TruncatedData:
    """Half-line data of a completely monotone law on -2.. with r2(1) set
    to 0: no nonnegative masses at -1, -2, ... solve the correlation
    system, and the widest window leaves a residual of 0.0613."""
    mu = lattice(-2, np.concatenate([[0.1, 0.2], 0.35 * 0.5 ** np.arange(60)]))
    table = truncated_data(mu, horizon).table.copy()
    table[1, 1] = 0.0
    return TruncatedData(horizon, table)


@pytest.fixture(scope="session")
def corpus100() -> list[LatticeDist]:
    return random_corpus(100)


@pytest.fixture(scope="session")
def corpus100_data(corpus100) -> list[TruncatedData]:
    return [truncated_data(mu, 200) for mu in corpus100]


@pytest.fixture(scope="session")
def p5_dist() -> LatticeDist:
    return power_tail_pair(cutoff=200).dist


@pytest.fixture(scope="session")
def p5_data(p5_dist) -> TruncatedData:
    return truncated_data(p5_dist, 200)


@pytest.fixture(scope="session")
def ssrw() -> LatticeDist:
    return lattice(-1, [0.5, 0.0, 0.5])


@pytest.fixture(scope="session")
def ssrw_data(ssrw) -> TruncatedData:
    return truncated_data(ssrw, 200)
