"""Push data through a negative-support extension and pull it back out.

Convolving the step law with a kernel supported on the negative axis
changes the restricted powers in a way that is computable from half-line
data alone. Dividing the generating functions afterwards recovers the
original data, including the head below the shift frontier, as long as
the data's top atom leaves the second power's product relations solvable.
A top atom at 1 genuinely destroys that information, and the module says
so instead of guessing.
"""

import numpy as np

from whlab import (
    convolve,
    deconvolve_extension,
    delta,
    extend_by_negative,
    lattice,
    sup_distance,
    truncated_data,
)

mu = lattice(-2, [0.15, 0.2, 0.25, 0.1, 0.3])
data = truncated_data(mu, 12)

for nu in (delta(-1), lattice(-1, [0.5, 0.5])):
    extended = extend_by_negative(data, nu)
    oracle = truncated_data(convolve(mu, nu), 12)
    forward = max(
        sup_distance(extended.restricted_power(n), oracle.restricted_power(n))
        for n in range(1, 13)
    )
    dec = deconvolve_extension(extended, nu)
    back = sup_distance(dec.r1, data.restricted_power(1))
    label = "delta(-1)      " if nu.mass(0) == 0.0 else "(d0 + d(-1))/2 "
    print(
        f"nu = {label} forward gap {forward:.2e}  "
        f"recovery gap {back:.2e}  head determined from {dec.determined_from}"
    )

# two walks that agree above 1 but differ below: after a shift by -1 the
# observable data collapses to powers of the top mass, so no recovery
# method can tell them apart, and the frontier honestly stays at 1
print()
a = truncated_data(lattice(-2, [0.2, 0.3, 0.1, 0.4]), 8)
b = truncated_data(lattice(-2, [0.1, 0.4, 0.1, 0.4]), 8)
ea = extend_by_negative(a, delta(-1))
eb = extend_by_negative(b, delta(-1))
collapse = max(
    sup_distance(ea.restricted_power(n), eb.restricted_power(n)) for n in range(1, 9)
)
dec_a = deconvolve_extension(ea, delta(-1))
print("top atom at 1: extended data of the two walks differ by", collapse)
print("deconvolution reports the head undetermined below", dec_a.determined_from)
recovered_top = dec_a.r1.mass(1)
print("while the part above the frontier is still exact:", recovered_top)
