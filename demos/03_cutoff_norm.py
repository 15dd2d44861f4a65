"""Two inequivalent readings of the same quadratic form.

The bare Hardy functional (principal value) and the cutoff limit
(functional minus surface term) agree on profiles vanishing at the origin
but differ by exactly the surface energy on profiles with a finite origin
value -- and for oscillating or log-growing regular parts the bare
functional has no limit at all.  The cutoff limit of log_power(0.3)
converges; that of oscillating(0.3) exists too, but sin(s^0.3) does not
finish one period on the eps grid, so it prints [diverging] there.
Consequence: the minimizer of the cutoff-norm quotient exists (the ground
mode), while cutting it off near the origin always costs a fixed amount of
energy, so the bare quotient over vanishing profiles never reaches its
infimum.
"""

import math

from hardylab import Dimension, approx, hardy, spectrum
from hardylab.profiles import named_profile

dim = Dimension(3)

print(f"{'profile':<20} {'bare functional':>22} {'cutoff limit':>16}")
for name in ("annular_bump", "e1", "oscillating(0.3)", "log_power(0.3)",
             "log_power(0.5)"):
    p = named_profile(dim, name)
    bare = hardy.principal_value(p)
    reg = hardy.cutoff_norm(p)
    bare_txt = f"{bare.limit:12.6f}" if bare.classification == "converged" \
        else f"[{bare.classification}]"
    reg_txt = f"{reg.limit:12.6f}" if reg.classification == "converged" \
        else f"[{reg.classification}]"
    print(f"{name:<20} {bare_txt:>22} {reg_txt:>16}")

e1 = named_profile(dim, "e1")
gap = hardy.principal_value(e1).limit - hardy.cutoff_norm(e1).limit
print()
print(f"ground mode: bare - cutoff = {gap:.10f}  (= 2 pi = {2*math.pi:.10f})")
print(f"Rayleigh quotient of the cutoff norm: {spectrum.rayleigh(e1):.12f}")
print(f"ground eigenvalue                   : {spectrum.eigenmode(dim, 1).eigenvalue:.12f}")
print()

print("cutting the ground mode off near the origin (log ramp at scale eps):")
mu1 = spectrum.eigenmode(dim, 1).eigenvalue
for eps in (1e-2, 1e-4, 1e-6):
    p = approx.log_cutoff(e1, eps)
    q = hardy.annulus_functional(p, 1e-13, 1.0) / hardy.weighted_l2_sq(p)
    print(f"  eps = {eps:5.0e}: bare quotient = {q:.6f}  (> mu_1 = {mu1:.6f})")
print("  the quotient decreases toward mu_1 but the excess ~ 1/log(1/eps)")
print("  never vanishes at any admissible profile: no minimizer down there.")
