"""Check the space-time factorization on a grid, with certified bounds.

For a lattice step distribution mu and |s| < 1 the identity

    1 - s phi(t) = (1 - chi_minus(s, t)) (1 - chi_plus(s, t))

splits the walk's joint transform into the two ladder factors. Both
factors are computed by the killed-walk recursion up to a finite horizon,
so the product misses the true identity by at most a certified truncation
bound, and float arithmetic moves the computed residual by at most a
derived roundoff allowance. This script evaluates the residual over an
(s, t) grid and prints it next to both.
"""

import numpy as np

from whlab import lattice, verify_factorization

mu = lattice(-2, [0.15, 0.25, 0.1, 0.3, 0.2])
horizon = 120
s_values = [0.3, 0.6, 0.9]
t_values = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)

report = verify_factorization(mu, s_values, t_values, horizon=horizon)

print("step law on [-2, 2], horizon", horizon)
print(f"{'s':>5} {'max residual':>14} {'certified bound':>16} {'roundoff':>10}")
for i, s in enumerate(report.s_values):
    row = report.residuals[i].max()
    print(f"{s.real:5.2f} {row:14.3e} {report.bounds[i]:16.3e} {report.roundoff[i]:10.3e}")

print()
print("worst residual:", f"{report.max_residual:.3e}")
print("worst bound:", f"{report.max_bound:.3e}")
assert (report.residuals <= (report.bounds + report.roundoff)[:, None]).all()
print("identity holds within the truncation bound plus roundoff everywhere")
