"""Bessel-weighted transformation on the whole space and its energies.

A whole-space profile is a plain ``RadialProfile``: u(r) = r^{-(N-2)/2} v(r)
is the function itself, and its Bessel factor is v/J_0.  Weighting the
critical transformation with J_0 removes the obstruction at infinity (the
transformed mass term is exactly the L^2 norm of u) at the price of interior
singular circles at the zeros z_m of J_0: membership requires u to vanish
there fast enough, since the factor has a pole otherwise, and each circle
carries a pair of one-sided surface energies of opposite sign.
``bessel_weighted`` builds the profile with a given factor.

``j_functional`` and ``norm_decomposition`` integrate piece by piece between
the zeros, and a piece that misses its tolerance raises NonConvergenceError
naming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import hardy
from .profiles import RadialProfile
from .quadrature import integrate
from .specfun import bessel_j, bessel_zero

__all__ = ["bessel_weighted", "JEnergy", "HardyPoincareResult", "j_functional",
           "hardy_poincare_check", "infimum_sequence", "zero_singularity_energies",
           "norm_decomposition", "bessel_zeros_upto"]


def bessel_zeros_upto(x: float) -> list[float]:
    """All positive zeros of J_0 below x."""
    zeros = []
    k = 1
    while True:
        z = bessel_zero(0.0, k)
        if z >= x:
            return zeros
        zeros.append(z)
        k += 1


def bessel_weighted(p: RadialProfile) -> RadialProfile:
    """The profile whose Bessel factor is p's regular part: v = J_0 p.v.

    A smooth factor makes u vanish at every zero of J_0.  Since J_0(0) = 1,
    the result keeps p's origin class, membership and support.  Its v' is
    -J_1 p.v where p.v' is 0, so it declares no flat radius.
    """
    v, dv = p.v, p.dv

    def v_j(r: float) -> float:
        return bessel_j(0.0, r) * v(r)

    def dv_j(r: float) -> float:
        return -bessel_j(1.0, r) * v(r) + bessel_j(0.0, r) * dv(r)

    return RadialProfile(dim=p.dim, v=v_j, dv=dv_j, support=p.support,
                         origin_class=p.origin_class,
                         name=f"bessel_weighted({p.name})" if p.name else "bessel_weighted",
                         member=p.member)


@dataclass
class JEnergy:
    gradient: float
    mass: float

    def total(self) -> float:
        return self.gradient + self.mass


def _integrate_between_zeros(f, lo: float, hi: float, eps: float) -> tuple[float, list[int]]:
    """(integral, cut zeros): f integrated over (lo, hi) less the eps-balls
    around the origin and around each zero z_m of J_0 inside
    (lo + eps, hi - eps), whose indices m are returned.

    Each piece between two cuts is one ``integrate`` call, which grades it
    from its ends alone.  The first piece that misses its tolerance raises
    NonConvergenceError naming it.
    """
    cut = [(m, z) for m, z in enumerate(bessel_zeros_upto(hi), 1) if lo + eps < z < hi - eps]
    ends = [max(lo, eps)] + [c for _, z in cut for c in (z - eps, z + eps)] + [hi]
    total = sum(integrate(f, a, b).value_or_raise() for a, b in zip(ends[::2], ends[1::2]))
    return total, [m for m, _ in cut]


def j_functional(p: RadialProfile) -> JEnergy:
    r"""Both Bessel-weighted energies of p, whose Bessel factor is
    w = v/J_0, integrated piece by piece between the zeros in the support:

        gradient = s_N \int J_0^2 w'^2 r dr = s_N \int (v' + (J_1/J_0) v)^2 r dr
        mass     = s_N \int J_0^2 w^2  r dr = s_N \int v^2 r dr
                                              (= ||u||^2_{L^2} exactly)

    by the identity J_0 (v/J_0)' = v' + (J_1/J_0) v.  On an admissible
    profile the gradient integrand is (J_0 w')^2 r, smooth at the zeros, so
    no piece is graded toward one.  On a profile that is inadmissible at a
    zero (u does not vanish there, so w has a pole) the gradient term is not
    integrable: refinement toward the zero stops at the float resolution
    with an error estimate far above the tolerance, and NonConvergenceError
    names the piece that ends there.
    """
    lo, hi = p.support
    sfac = p.dim.surface_factor

    def g(r: float) -> float:
        return (p.dv(r) + bessel_j(1.0, r) / bessel_j(0.0, r) * p.v(r)) ** 2 * r

    def m(r: float) -> float:
        return p.v(r) ** 2 * r

    grad, mass = (_integrate_between_zeros(f, lo, hi, 0.0)[0] for f in (g, m))
    return JEnergy(sfac * grad, sfac * mass)


@dataclass
class HardyPoincareResult:
    i_value: float       # cutoff-limit value: principal value - singularity energy
    energies: JEnergy    # weighted gradient and mass (= ||u||^2_{L^2})
    margin: float        # i_value - mass  (> 0 is the inequality)
    defect: float        # |principal value - (gradient + mass + singularity energy)|


def hardy_poincare_check(p: RadialProfile) -> HardyPoincareResult:
    """Both sides of the decomposition I = gradient + mass + L, each by its
    own quadrature, together with the strict-improvement margin.

    Raises NonConvergenceError when the principal value or the
    Bessel-weighted energies do not converge, as on a profile whose Bessel
    factor has a pole at a zero of J_0.
    """
    pv = hardy.principal_value(p).limit_or_raise()
    hs = hardy.singularity_energy(p, 0.0)
    je = j_functional(p)
    i_val = pv - hs
    return HardyPoincareResult(
        i_value=i_val,
        energies=je,
        margin=i_val - je.mass,
        defect=abs(pv - (je.gradient + je.mass + hs)),
    )


def infimum_sequence(n: int) -> float:
    """Rayleigh quotient of the plateau profile: v = 1 on (0, n pi/4), linear
    decay to 0 over the next pi/4 window.

    The weighted gradient term is bounded in n while the mass term grows
    linearly, so the quotient is strictly positive yet tends to zero: the
    infimum 0 is not attained.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    r1 = n * math.pi / 4.0
    r2 = (n + 1) * math.pi / 4.0
    slope = 4.0 / math.pi
    def grad(r: float) -> float:
        return (bessel_j(0.0, r) * slope) ** 2 * r

    def mass_plateau(r: float) -> float:
        return bessel_j(0.0, r) ** 2 * r

    def mass_ramp(r: float) -> float:
        return (bessel_j(0.0, r) * (r2 - r) * slope) ** 2 * r

    # J_0^2 times a polynomial has no pole: no split at the zeros of J_0
    gval = integrate(grad, r1, r2).value_or_raise()
    m1 = integrate(mass_plateau, 0.0, r1).value_or_raise()
    m2 = integrate(mass_ramp, r1, r2).value_or_raise()
    return gval / (m1 + m2)


def zero_singularity_energies(p: RadialProfile, m: int, eps: float) -> tuple[float, float]:
    """One-sided surface energies at the m-th zero:

        L(+/-) = s_N s (J_0'/J_0)(s) v(s)^2   at  s = z_m +/- eps,

    the surface term s_N s^{N-1} (J_0'/J_0) u^2 of u = s^{-(N-2)/2} v written
    in the regular part.  J_0 and J_0' have opposite signs just past a zero
    and equal signs just before it, so L(+) >= 0 and -L(-) >= 0 whenever they
    are finite.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got eps={eps}")
    z = bessel_zero(0.0, m)
    z_prev = bessel_zero(0.0, m - 1) if m > 1 else 0.0
    z_next = bessel_zero(0.0, m + 1)
    if z - eps <= z_prev or z + eps >= z_next:
        raise ValueError(f"eps={eps} too large: J_0 vanishes inside the bracket")
    sfac = p.dim.surface_factor
    out = []
    for s in (z + eps, z - eps):
        ratio = -bessel_j(1.0, s) / bessel_j(0.0, s)  # J_0'/J_0
        out.append(sfac * s * ratio * p.v(s) ** 2)
    return out[0], out[1]


def norm_decomposition(p: RadialProfile, energies: JEnergy,
                       eps: float) -> tuple[float, float, float]:
    """(weighted norm, reassembled norm, defect) at cut width eps.

    The weighted norm is the total of ``energies``, the caller's
    ``j_functional(p)``: a caller that has already integrated them (as
    ``hardy_poincare_check`` does) does not pay for them twice.  The
    reassembled side removes eps-balls around the origin and every zero,
    evaluates the Hardy functional there in the direct form
    (``hardy.energy_density``), subtracts the origin surface energy and adds
    the zero-circle pair of each zero it cut.  Raises NonConvergenceError
    naming the first piece of the direct-form integral that misses its
    tolerance.
    """
    lo, hi = p.support
    f = hardy.energy_density(p.dim, p.v, p.dv)
    i_total, cut = _integrate_between_zeros(f, lo, hi, eps)
    i_total *= p.dim.surface_factor

    rhs = i_total - hardy.singularity_energy(p, max(lo, eps))
    for m in cut:
        lp, lm = zero_singularity_energies(p, m, eps)
        rhs += lp - lm

    lhs = energies.total()
    return lhs, rhs, abs(lhs - rhs)
