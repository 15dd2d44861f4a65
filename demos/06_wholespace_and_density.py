"""Whole-space improvement, cutoff density, and the dimension reduction.

Three desk experiments:

1. weighting the transformation with J_0 turns the whole-space Hardy
   functional into (gradient term) + (L^2 norm) + (surface energy), so the
   functional strictly exceeds the L^2 norm -- yet plateau profiles push the
   gradient/mass quotient below any positive bound: best constant 1, no
   minimizer;
2. cutting a profile off near the origin with a rescaled smoothstep leaves a
   defect that refuses to vanish, while a logarithmic ramp's defect decays
   like 1/log(1/eps);
3. the map t = (-log(r/R))^{-1/(N-2)} sends the weighted Dirichlet energy on
   the ball to the flat one on the whole space with squared-norm ratio
   exactly 1/(N-2), independent of R.
"""

import math

from hardylab import Dimension, approx, wholespace
from hardylab.profiles import make_named

dim = Dimension(3)

print("1. improvement by the L2 norm on the whole space")
for plateau, hi in ((0.5, 3.0), (1.0, 5.0), (2.0, 9.0)):
    p = wholespace.bessel_weighted(make_named(dim, "bump", fall=(plateau, hi)))
    res = wholespace.hardy_poincare_check(p)
    print(f"  support (0,{hi:3.0f}): functional={res.i_value:9.5f}  "
          f"L2={res.energies.mass:9.5f}  margin={res.margin:8.5f}  "
          f"defect={res.defect:.1e}")

print("  plateau quotients (gradient/mass): ", end="")
print("  ".join(f"n={n}: {wholespace.infimum_sequence(n):.4f}"
                for n in (8, 16, 32, 64)))
print("  positive for every n, arbitrarily small: the infimum 0 is not attained")
print()

print("2. naive vs logarithmic cutoff defect (unit-plateau bump)")
bump = make_named(dim, "bump")
lim = approx.naive_cutoff_limit(bump)
print(f"  naive defect at eps=1e-3: {approx.naive_cutoff_defect(bump, 1e-3):.6f}")
print(f"  naive defect at eps=1e-4: {approx.naive_cutoff_defect(bump, 1e-4):.6f}")
print(f"  its eps->0 limit        : {lim:.6f}   (never vanishes)")
for eps in (1e-2, 1e-4, 1e-8, 1e-25):
    d = approx.log_cutoff_defect(bump, eps)
    print(f"  log-ramp defect at eps={eps:6.0e}: {d:.6f}"
          f"   (C/log(1/eps) with C = {d*math.log(1/eps):.6f})")
print()

print("3. dimension reduction: weighted ball energy vs flat whole-space energy")
for n in (3, 4, 5):
    d = Dimension(n)
    for radius in (1.0, 7.0):
        p = make_named(d, "bump", fall=(0.4 * radius, 0.8 * radius))
        ratio = approx.dim_reduction(p, radius)
        print(f"  N={n} R={radius:g}: ratio = {ratio:.12f}"
              f"   (exact 1/(N-2) = {1.0/(n-2):.12f})")
