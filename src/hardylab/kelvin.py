"""Kelvin transform between the punctured unit ball and the exterior domain.

The inversion y = x/|x|^2 with u(x) = |y|^{N-2} w(y) maps radial profiles on
(0, 1] to exterior profiles on [1, oo).  In regular parts it is simply
omega(s) = v(1/s): an involution whose image is again a RadialProfile, whose
regular part omega stands for w = s^{-(N-2)/2} omega.  The interior origin
becomes the exterior infinity, and the singularity energy of u at 0
reappears as a surface term of w at infinity, hs omega(S)^2 at radius S:
``hardy.singularity_energy`` of the image, as inside the ball.  The exterior
squared norm is the limit of I_exterior + L_exterior, which stays finite
(and equals the interior cutoff norm) even where the exterior Hardy
functional alone is negative, oscillating, or divergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hardy
from .profiles import RadialProfile
from .quadrature import LimitResult, integrate_to_limit

__all__ = ["kelvin_map", "exterior_functional", "identity_check", "exterior_norm",
           "IdentityCheck"]


def kelvin_map(p: RadialProfile) -> RadialProfile:
    """Kelvin image of p: regular part v(1/s) on the inverted support.

    The map is its own inverse, so it pushes a ball profile to the exterior
    and pulls an exterior profile back.  On the exterior side ``origin_class``
    names the behaviour at infinity, the image of the origin.
    """
    lo, hi = p.support
    if not (hi <= 1.0 + 1e-12 or lo >= 1.0 - 1e-12):
        raise ValueError(f"support {p.support} must lie inside the unit ball "
                         "or outside it")

    def v(x):
        y = 1.0 / np.maximum(x, 1e-300)  # the axis maps to the far field
        return p.v(y)

    def dv(x):
        y = 1.0 / np.maximum(x, 1e-300)
        return -(p.dv(y) * y) * y  # dv/x^2, ordered so huge*tiny pairs first

    inv_lo = math.inf if lo == 0.0 else 1.0 / lo  # and 1/inf = 0
    # p flat below a radius makes the image flat above its inverse, not below
    return RadialProfile(dim=p.dim, v=v, dv=dv, support=(1.0 / hi, inv_lo),
                         origin_class=p.origin_class,
                         name=f"kelvin[{p.name}]" if p.name else "kelvin", member=p.member)


def exterior_functional(q: RadialProfile, S: float) -> float:
    r"""Hardy functional on the truncated exterior annulus 1 < s < S:
    s_N \int_1^S (w'^2 - c* w^2/s^2) s^{N-1} ds.

    q is a Kelvin image: q.v = omega is the regular part of
    w = s^{-(N-2)/2} omega, and q.origin_class names the behaviour at
    infinity.  This is the annulus functional of q on (1, S) in its direct
    form; the reduced form, whose integrand vanishes with omega' where the
    direct form's two terms cancel, is ``hardy.annulus_functional`` with
    method="reduced", the form ``exterior_norm`` takes.  For S >= 16 it is
    integrated in ln s, where energy spread over dozens of decades is smooth.
    """
    if not S > 1.0:
        raise ValueError(f"need S > 1, got {S}")
    return hardy.annulus_functional(q, 1.0, S)


@dataclass
class IdentityCheck:
    eps: float
    interior: float            # annulus functional of the preimage on (eps, 1)
    exterior: float            # exterior functional on (1, 1/eps)
    interior_surface: float    # singularity energy of the preimage at eps
    exterior_surface: float    # exterior surface term at 1/eps
    defect: float              # interior - exterior - 2 * exterior_surface
    surface_defect: float      # interior_surface - exterior_surface


def identity_check(p: RadialProfile, eps: float) -> IdentityCheck:
    """Both sides of the inversion identities, each functional by its own
    quadrature:

        I_interior(eps, 1) = I_exterior(1, 1/eps) + 2 L_exterior(1/eps)
        L_interior(eps)    = L_exterior(1/eps)

    The exterior surface term at S is ``hardy.singularity_energy`` of the
    image at S, hs omega(S)^2, which equals hs S^{N-2} w(S)^2.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"need 0 < eps < 1, got {eps}")
    q = kelvin_map(p)
    interior = hardy.annulus_functional(p, eps, 1.0)
    exterior = exterior_functional(q, 1.0 / eps)
    l_int = hardy.singularity_energy(p, eps)
    l_ext = hardy.singularity_energy(q, 1.0 / eps)
    return IdentityCheck(
        eps=eps,
        interior=interior,
        exterior=exterior,
        interior_surface=l_int,
        exterior_surface=l_ext,
        defect=interior - exterior - 2.0 * l_ext,
        surface_defect=l_int - l_ext,
    )


def exterior_norm(q: RadialProfile) -> LimitResult:
    """Exterior squared norm: lim_{eps->0} I_exterior(1/eps) + L_exterior(1/eps).

    The surface term enters with the opposite sign convention from the ball:
    at infinity the hidden energy adds to the functional instead of being cut
    away, and the sum is the quantity unitarily equivalent to the interior
    cutoff norm.  The eps grid is ``hardy.eps_grid`` and the functional is
    taken in the reduced form, as in ``hardy.cutoff_norm``: each sample is
    then the weighted Dirichlet energy of the image on (1, 1/eps), which the
    inversion carries to that of the preimage on (eps, 1), so the image of a
    ball profile reports the interior limit, or ``diverging`` with it.
    """
    # slices in S = 1/eps: the slice (eps_j, eps_{j-1}) is 1/eps_{j-1} < s < 1/eps_j
    functional = hardy.running_integral(
        lambda lo, hi: hardy.annulus_functional(q, 1.0 / hi, 1.0 / lo, method="reduced"), 1.0)
    return integrate_to_limit(
        lambda eps: functional(eps) + hardy.singularity_energy(q, 1.0 / eps), hardy.eps_grid(q))
