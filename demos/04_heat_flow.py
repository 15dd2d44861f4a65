"""Singular heat flow on the unit ball, solved two independent ways.

The regular part obeys the 2-d radial heat equation v_t = v'' + v'/r; the
spectral solver decays mode coefficients exactly while the finite-difference
theta scheme knows nothing about Bessel functions.  The energy law
dE/dt = -2 * (weighted Dirichlet energy) holds along the discrete flow up to
the discretisation error, and the scheme keeps its own discrete law,
E(t) - E(t - dt) = -2 dt B(v_theta, vbar) in the cell masses it factors,
to rounding: its relative defect is the last column.
"""

import math

import numpy as np

from hardylab import Dimension, evolution, spectrum
from hardylab.profiles import make_named

dim = Dimension(3)
p = make_named(dim, "bump")

grid = evolution.FDGrid(m=512, dt=1e-4, theta=0.5)
run = evolution.FDRun(p, grid, 0.1)

print("energy trace of the finite-difference flow (bump initial data)")
print(f"{'t':>6} {'E(t)':>14} {'dE/dt':>14} {'-2*Dirichlet':>14} {'law defect':>12}")
for t in [0.0125 * j for j in range(1, 8)]:
    # one time at a time: the trace's reads leave the step into t held
    row, = evolution.energy_trace(run, [t])
    print(f"{row.t:>6.4f} {row.energy:>14.8f} {row.dEdt_est:>14.6f} "
          f"{row.minus_twice_dirichlet:>14.6f} {run.law_defect(t):>12.2e}")

field = spectrum.expand(p, 40)
f_t = evolution.evolve_spectral(field, 0.1)
v_sp = np.array([f_t.v(rj) for rj in grid.nodes])
dist = math.sqrt(run.norm_sq(run.state(0.1) - v_sp))
print()
print(f"finite-difference vs spectral solution at t = 0.1 "
      f"(weighted L2 distance): {dist:.2e}")

mu1 = spectrum.eigenmode(dim, 1).eigenvalue
e_a = evolution.evolve_spectral(field, 2.0).norm_sq()
e_b = evolution.evolve_spectral(field, 2.5).norm_sq()
slope = (math.log(e_b) - math.log(e_a)) / 0.5 / 2.0
print(f"long-time decay rate of log||v||: {-slope:.9f} -> ground eigenvalue "
      f"{mu1:.9f}")
