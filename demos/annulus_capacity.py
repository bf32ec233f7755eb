"""Capacity of a spherical annulus, three ways.

Computes the 2-capacity of the condenser {t=1} / {t=2} in the radial
model of R^3: the closed form gives 8*pi, the p-energy of the discrete
minimizer must agree, and the extremal potential must match u = 2/t - 1.
On a 1D grid that minimizer is the eps -> 0 limit itself, in closed form:
every cell between the plates carries one flux.
"""

import numpy as np

import plap.capacity as cap
from plap.geometry import euclidean
from plap.grid import Grid1D

M = euclidean(3)

exact = 8 * np.pi
ana = cap.capacity_analytic(M, 2.0, 1.0, 2.0)
print(f"analytic capacity      : {ana.value:.10f}  (exact 8*pi = {exact:.10f})")

grid = Grid1D.uniform(1.0, 2.0, 1025, manifold=M)
cond = cap.Condenser(inner=(1.0, 1.0), outer=(2.0, 2.0))
num = cap.capacity_numeric(grid, 2.0, cond)
print(f"numeric capacity       : {num.value:.10f}")
print(f"relative difference    : {abs(num.value - exact) / exact:.3e}")

u = num.extremal
err = np.max(np.abs(u.values - (2.0 / grid.nodes - 1.0)))
print(f"extremal vs 2/t - 1    : max deviation {err:.3e}")

print()
print("monotonicity under nesting:")
suite = cap.capacity_monotonicity_suite(
    M, 2.0, [(1.0, 2.0), (1.0, 3.0), (1.2, 3.0)])
for (label, ok), c in zip(suite["checks"], suite["capacities"]):
    print(f"  cap = {c:10.6f}  {label}: {'ok' if ok else 'VIOLATED'}")
