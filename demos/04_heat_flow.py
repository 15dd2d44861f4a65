"""Singular heat flow on the unit ball, solved two independent ways.

The regular part obeys the 2-d radial heat equation v_t = v'' + v'/r; the
spectral solver decays mode coefficients exactly while the finite-difference
theta scheme knows nothing about Bessel functions.  The energy law
dE/dt = -2 * (weighted Dirichlet energy) holds along the discrete flow, and
the boundary flux at the innermost cell -- the term the weak formulation
discards -- is monitored and stays tiny.
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
print(f"{'t':>6} {'E(t)':>14} {'dE/dt':>14} {'-2*Dirichlet':>14} {'flux diag':>12}")
for row in evolution.energy_trace(run, [0.0125 * j for j in range(1, 8)]):
    print(f"{row.t:>6.4f} {row.energy:>14.8f} {row.dEdt_est:>14.6f} "
          f"{row.minus_twice_dirichlet:>14.6f} {row.flux_diag:>12.2e}")

field = spectrum.expand(p, 40)
f_t = evolution.evolve_spectral(field, 0.1)
r = grid.nodes
v_fd = run.state(0.1)
v_sp = np.array([f_t.v(rj) for rj in r])
dist = math.sqrt(dim.surface_factor * grid.h * float(np.sum((v_fd - v_sp) ** 2 * r)))
print()
print(f"finite-difference vs spectral solution at t = 0.1 "
      f"(weighted L2 distance): {dist:.2e}")

mu1 = spectrum.eigenmode(dim, 1).eigenvalue
e_a = evolution.evolve_spectral(field, 2.0).norm_sq()
e_b = evolution.evolve_spectral(field, 2.5).norm_sq()
slope = (math.log(e_b) - math.log(e_a)) / 0.5 / 2.0
print(f"long-time decay rate of log||v||: {-slope:.9f} -> ground eigenvalue "
      f"{mu1:.9f}")
