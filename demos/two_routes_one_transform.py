"""Cross-check the upward ladder transform by two independent routes.

The killed-walk dynamic program sums E[s^tau e^{i t S_tau}] over hitting
epochs directly. The log-series route never sees the ladder at all: it
assembles the same transform from the restricted convolution powers of the
data through an exponential of a power series. The two computations share
no code past the step law, so agreement within the sum of their certified
truncation bounds and roundoff allowances is a genuine consistency check.
"""

import numpy as np

from whlab import (
    UPWARD,
    chi_eval_grid,
    ladder_law,
    lattice,
    spitzer_chi_grid,
    truncated_data,
)

mu = lattice(-1, [0.35, 0.15, 0.2, 0.3])
horizon = 100
s_values = np.array([0.2, 0.5, 0.8])
t_values = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)

law = ladder_law(mu, UPWARD, horizon)
dp = chi_eval_grid(law, s_values, t_values)

data = truncated_data(mu, horizon)
series = spitzer_chi_grid(data, s_values, t_values)

gap = np.abs(dp.values - series.values)
allowed = (dp.bounds + dp.roundoff + series.bounds + series.roundoff)[:, None]

print(f"{'s':>5} {'max |dp - series|':>18} {'bounds + roundoff':>18}")
for i, s in enumerate(s_values):
    print(f"{s:5.2f} {gap[i].max():18.3e} {allowed[i, 0]:18.3e}")

assert (gap <= allowed).all()
print()
print("the dynamic program and the series inversion agree everywhere")
