"""The hidden energy at infinity on the exterior domain.

Inversion y = x/|x|^2 with u = |y|^{N-2} w maps the ball problem to the
exterior one; the surface energy of u at the origin reappears as a surface
term of w at infinity.  Interior and exterior functionals are tied by

    I_interior(eps, 1) = I_exterior(1, 1/eps) + 2 L(1/eps),

and the exterior squared norm is the limit of I_exterior + L: the hidden
term ADDS to the exterior functional instead of being cut away.  It can
dominate: the truncated exterior functional of the ground-mode image turns
negative from dimension 4 on, and in dimension 3 a logarithmic ramp (small
Dirichlet energy, unit trace) drives it negative as well.
"""

from hardylab import Dimension, hardy, kelvin
from hardylab.profiles import make_e1, named_profile

print("inversion identities for the ground mode (dimension 3)")
dim = Dimension(3)
e1 = make_e1(dim)
for eps in (1e-2, 1e-3):
    chk = kelvin.identity_check(e1, eps)
    print(f"  eps={eps:6.0e}: interior={chk.interior:.10f} "
          f"exterior+2L={chk.exterior + 2*chk.exterior_surface:.10f} "
          f"defect={chk.defect:.1e}")

q = kelvin.kelvin_map(e1)
nrm = kelvin.exterior_norm(q)
interior = hardy.cutoff_norm(e1)
print()
print(f"exterior norm   = {nrm.limit:.10f}")
print(f"interior norm   = {interior.limit:.10f}   (unitary equivalence)")
i_ext = kelvin.exterior_functional(q, 4.0e4)
print(f"truncated exterior functional = {i_ext:+.6f}")
print(f"hidden surface energy         = {nrm.limit - i_ext:+.6f} "
      f"(= N(N-2)/2 omega_N = {dim.hs_constant:.6f})")
print()

print("sign of the truncated exterior functional of the ground-mode image:")
for n in (3, 4, 5):
    d = Dimension(n)
    qq = kelvin.kelvin_map(make_e1(d))
    val = kelvin.exterior_functional(qq, 2.0e4)
    share = (d.hs_constant) / (val + d.hs_constant)
    print(f"  N={n}: I_exterior = {val:+10.4f}   hidden share of the norm: "
          f"{share:6.1%}")
print("  (the hidden term overtakes the whole norm from dimension 4 on)")
print()

print("dimension 3, logarithmic ramp: the hidden term dominates there too")
ramp = named_profile(dim, "log_ramp(1e-6)")
qr = kelvin.kelvin_map(ramp)
val = kelvin.exterior_functional(qr, 1e7)
print(f"  Dirichlet energy = {hardy.weighted_dirichlet(ramp, 0.0):.6f}, "
      f"surface energy = {dim.hs_constant:.6f}")
print(f"  truncated exterior functional = {val:+.6f}  (negative: the energy "
      f"at infinity exceeds the whole functional)")
