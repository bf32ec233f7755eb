"""Pointwise identities on closed-form extremals.

Runs the Kato-ratio, strong-form, and Bochner checks on fields whose
expected values are known exactly: the planar log potential (ratio 2),
the p=3 radial extremal in m=4 (ratio 7/3), and the generalized
five-term identity, which must hold at rounding level when every
derivative is supplied in closed form.  Ends with the random sweeps of
the vector monotonicity and regularization inequalities.
"""

import numpy as np

import plap.solver as sv
import plap.verifiers as vf
from plap.energy import EnergySpec
from plap.geometry import euclidean
from plap.grid import Grid1D


def show(rep):
    print(f"  {rep.name}: min {rep.minimum:.8g}  max {rep.maximum:.8g}  "
          f"threshold {rep.threshold:.3g}  "
          f"{'pass' if rep.passed else 'FAIL'}")


print("Kato ratio (expected 2):")
show(vf.kato_ratio(vf.log_radial_field(m=2), 2.0))

print("Kato ratio (expected 7/3 = %.8f):" % (7 / 3))
show(vf.kato_ratio(vf.power_radial_field(3.0, 4), 3.0))

print("strong-form residual (truncation only):")
show(vf.strong_form_residual(vf.power_radial_field(3.0, 4), 3.0))

print("generalized five-term identity, closed form:")
show(vf.bochner_s_residual(vf.power_radial_field(3.0, 4), 3.0, 1.0, 1e-3))

print("perturbed identity on solver output, refinement study:")
M = euclidean(3)
eps = 1e-4
for n in (257, 513, 1025):
    g = Grid1D.uniform(1.0, 2.0, n, manifold=M)
    f, _ = sv.solve_dirichlet(EnergySpec(3.0, eps), g, (1.0, 0.0))
    rep = vf.bochner_residual(f, 3.0, eps)
    print(f"  n = {n:5d}: max residual {rep.maximum:.3e}")

print("vector monotonicity, random sweep:")
out = vf.monotonicity_suite(p_values=(1.5, 3.0), n=50_000, seed=0)
for p in (1.5, 3.0):
    r = out[p]
    print(f"  p = {p}: violations {r['violations']}, "
          f"empirical constant {r['C_emp']:.6f}, "
          f"half-constant recheck {'ok' if r['half_constant_recheck'] else 'FAIL'}")

print("regularization inequality, random sweep:")
show(vf.regularization_suite(10_000, 0))
