"""Recover full step laws from half-line observations, one class at a time.

Only the restricted convolution powers (the walk seen on the nonnegative
axis) are handed to the detectors; everything below zero is reconstructed.
Four structural classes are walked through, then a degenerate instance
shows the solver refusing to fabricate an answer when the data cannot pin
one down.
"""

import numpy as np

from whlab import (
    auto_reconstruct,
    correlation_inverse,
    geometric_mixture,
    lattice,
    power_tail_pair,
    truncated_data,
    tv_distance,
    two_point,
)

cases = [
    ("skip-free, zero mean", lattice(-1, [0.5, 0.2, 0.1, 0.2]), 160),
    ("two-point, drift up", two_point(-3, 1, 0.85).dist, 200),
    ("two negative atoms + cubic tail", power_tail_pair(cutoff=200).dist, 200),
    ("mixture of geometrics", geometric_mixture((0.3, 0.7), (0.45, 0.55)).dist, 80),
]

for name, mu, horizon in cases:
    data = truncated_data(mu, horizon)
    report = auto_reconstruct(data)
    tv = tv_distance(report.recovered, mu)
    print(f"{name:34s} -> {report.detected_class:12s} tv={tv:.2e}")

# a single-geometric kernel makes the correlation system rank one: any
# number of negative masses explain the same data, and the solver says so
print()
kernel = lattice(0, 0.3 * 0.5 ** np.arange(40))
planted = {1: 0.3, 2: 0.2}
b = np.array(
    [sum(w * kernel.mass(n + j) for j, w in planted.items()) for n in range(1, 16)]
)
sol = correlation_inverse(kernel, b, deficit=0.5)
print("degenerate kernel: rank", sol.rank, "of", len(sol.masses), "lags,")
print("rank_deficient flag:", sol.rank_deficient)
