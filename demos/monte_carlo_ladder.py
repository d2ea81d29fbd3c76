"""Validate exact ladder-epoch masses against a reproducible simulation.

The sampler walks 100k independent trajectories with a counter-based
generator (same seed, same counts, regardless of batching) and bins the
first nonnegative hit by (epoch, height). Each bin with enough expected
mass is scored against the dynamic program's exact probability, and the
walks still alive at the step cap are scored against the exact alive mass.
"""

from whlab import (
    UPWARD,
    censored_z,
    compare_empirical,
    ladder_law,
    lattice,
    sample_ladder,
)

mu = lattice(-1, [0.5, 0.0, 0.5])
max_steps = 2000
emp = sample_ladder(mu, UPWARD, 100_000, max_steps=max_steps, seed=7)
law = ladder_law(mu, UPWARD, max_steps)
report = compare_empirical(law, emp)

print("uniform{-1,1}, upward ladder, 100000 walks")
print("cells compared:", report.n_cells)
print("worst cell z-score:", f"{report.max_z:.3f}")
print("censored walks:", emp.censored_count)
print("censored z-score:", f"{censored_z(law, emp):.3f}")
print("within 4 sigma everywhere:", report.passed)

print()
print("five largest cells (epoch, height, observed, expected, z):")
for cell in sorted(report.cells, key=lambda c: -c[3])[:5]:
    n, k, observed, expected, z = cell
    print(f"  n={n:<3d} k={k:<2d} {observed:>6d} {expected:10.1f} {z:+.2f}")
