"""Fourier analysis on product spaces, in five minutes.

Functions on n i.i.d. coordinates expand over a product basis indexed by
degree sequences.  Everything the later machinery needs (influences,
degree tails, noising, restrictions) is a statement about coefficient
mass, which this demo walks through on small examples.
"""

import numpy as np

from nisim import (
    TableStrategy,
    build_basis,
    degree_tail_mass,
    hypercontractive_norm_bound,
    influences,
    inverse_transform,
    noise_operator,
    noise_operator_kernel,
    restrict,
    transform,
)
from nisim.spaces import FiniteSpace

bit = FiniteSpace(["+1", "-1"], [0.5, 0.5])
basis = build_basis(bit)
print("Basis on a uniform bit:", basis.chars.tolist())

biased = FiniteSpace(["0", "1"], [2 / 3, 1 / 3])
print("Basis on a 2/3-1/3 bit:", np.round(build_basis(biased).chars, 6).tolist())
print("  (constant first; the second is fixed by mean 0, variance 1)")

print()
print("Majority of three bits")
vals = []
for x in range(8):
    bits = [1 if (x >> k) & 1 == 0 else -1 for k in (2, 1, 0)]
    vals.append(1.0 if sum(bits) > 0 else -1.0)
maj = transform(TableStrategy(bit, 3, vals))
print("  coefficients:", {k: round(c, 4) for k, c in sorted(maj.coeffs.items())})
print("  influences:", influences(maj).tolist(), " (each bit matters equally)")
print("  mass above degree 1:", round(degree_tail_mass(maj, 1), 6))

print()
print("Noising pushes coefficient mass down by gamma^degree:")
noised = noise_operator(maj, 0.8)
print("  at gamma=0.8:", {k: round(c, 4) for k, c in sorted(noised.coeffs.items())})
kernel_route = noise_operator_kernel(TableStrategy(bit, 3, vals), 0.8)
spectral_route = inverse_transform(noised)
print("  kernel route minus spectral route, sup norm:",
      float(np.abs(kernel_route.values - spectral_route.values).max()))

print()
print("Restricting the first coordinate to -1 collapses coefficients:")
restricted = restrict(maj, [0], ["-1"])
print("  majority becomes AND-like on the rest:",
      {k: round(c, 4) for k, c in sorted(restricted.coeffs.items())})

print()
print("Hypercontractive norm control for low-degree polynomials:")
actual = inverse_transform(maj).norm(4)
bound = hypercontractive_norm_bound(maj, 4.0)
print(f"  ||Maj3||_4 = {actual:.6f} <= bound {bound:.6f}")
