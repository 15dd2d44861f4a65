"""Kelvin transform between the punctured unit ball and the exterior domain.

The inversion y = x/|x|^2 with u(x) = |y|^{N-2} w(y) maps radial profiles on
(0, 1] to exterior profiles on [1, oo).  In regular parts it is simply
omega(s) = v(1/s): the interior origin becomes the exterior infinity, and the
singularity energy of u at 0 reappears as a surface term of w at infinity.
The exterior squared norm is the limit of I_exterior + L_exterior, which
stays finite (and equals the interior cutoff norm) even where the exterior
Hardy functional alone is negative, oscillating, or divergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import hardy
from .profiles import Dimension, RadialProfile
from .quadrature import (
    DEFAULT_EPS_SEQUENCE,
    LimitResult,
    QuadConfig,
    integrate,
    integrate_to_limit,
)

__all__ = ["ExteriorProfile", "kelvin_map", "kelvin_unmap",
           "exterior_functional", "exterior_singularity_energy",
           "identity_check", "exterior_norm", "IdentityCheck"]


@dataclass
class ExteriorProfile:
    """Radial function w(s) on s = |y| >= 1, stored with its regular part
    omega(s) = s^{(N-2)/2} w(s)."""

    dim: Dimension
    w: Callable[[float], float]
    dw: Callable[[float], float]
    regular: Callable[[float], float]
    dregular: Callable[[float], float]
    support: tuple[float, float]  # in s; upper bound may be inf
    decay_class: str
    boundary_zero: bool
    name: str = ""
    quad_levels: int = 52


def kelvin_map(p: RadialProfile) -> ExteriorProfile:
    """Push a profile supported in (0, 1] to the exterior domain."""
    if p.support[1] > 1.0 + 1e-12:
        raise ValueError("Kelvin map here expects support inside the unit ball")
    lam = p.dim.singular_exponent

    def regular(s: float) -> float:
        return p.v(1.0 / s)

    def dregular(s: float) -> float:
        r = 1.0 / s
        return -(p.dv(r) * r) * r  # dv/s^2, ordered so huge*tiny pairs first

    def w(s: float) -> float:
        return s ** (-lam) * p.v(1.0 / s)

    def dw(s: float) -> float:
        return s ** (-lam) * (dregular(s) - lam * regular(s) / s)

    hi = math.inf if p.support[0] == 0.0 else 1.0 / p.support[0]
    lo = max(1.0, 1.0 / p.support[1])
    return ExteriorProfile(
        dim=p.dim, w=w, dw=dw, regular=regular, dregular=dregular,
        support=(lo, hi), decay_class=p.origin_class,
        boundary_zero=p.boundary_zero,
        name=f"kelvin[{p.name}]" if p.name else "kelvin",
        quad_levels=p.quad_levels,
    )


def kelvin_unmap(q: ExteriorProfile) -> RadialProfile:
    """Pull an exterior profile back to the ball (involution partner)."""
    lo = 0.0 if math.isinf(q.support[1]) else 1.0 / q.support[1]

    def v(r):
        s = 1.0 / np.maximum(r, 1e-300)  # the axis maps to the far field
        return q.regular(s)

    def dv(r):
        s = 1.0 / np.maximum(r, 1e-300)
        return -(q.dregular(s) * s) * s

    return RadialProfile(
        dim=q.dim,
        v=v,
        dv=dv,
        support=(lo, min(1.0, 1.0 / q.support[0])),
        origin_class=q.decay_class,
        boundary_zero=q.boundary_zero,
        name=f"unkelvin[{q.name}]" if q.name else "unkelvin",
        quad_levels=q.quad_levels,
    )


def _annulus_cfg(q: ExteriorProfile, S: float) -> QuadConfig:
    needed = int(math.log2(max(S, 4.0))) + 10
    return QuadConfig(endpoint_grading=min(max(52, needed), q.quad_levels + 16),
                      max_depth=60)


def exterior_functional(q: ExteriorProfile, S: float, method: str = "direct") -> float:
    r"""Hardy functional on the truncated exterior annulus 1 < s < S:
    s_N \int_1^S (w'^2 - c* w^2/s^2) s^{N-1} ds.

    method="direct" builds the integrand from the public w and dw.  For very
    deep truncations (S beyond ~1e100) w' underflows before the weight can
    compensate; method="reduced" expands the square pointwise in the regular
    part,  omega'^2 s - 2 lam omega omega',  which stays representable.
    """
    if not S > 1.0:
        raise ValueError(f"need S > 1, got {S}")
    dim = q.dim
    if method == "direct":
        f = hardy.energy_density(dim, q.w, q.dw)
    elif method == "reduced":
        f = hardy.reduced_density(dim, q.regular, q.dregular)
    else:
        raise ValueError(f"unknown method {method!r}")

    # integrate only where the profile lives, otherwise a narrow compactly
    # supported w can slip between quadrature nodes
    lo = max(1.0, q.support[0])
    hi = min(S, q.support[1])
    if not lo < hi:
        return 0.0
    # grading toward the INNER edge makes the initial panels geometric in
    # s - lo, i.e. roughly one per octave of s: the only way to cover energy
    # spread over dozens of decades up to the truncation radius
    res = integrate(f, lo, hi, _annulus_cfg(q, hi), singular_end="left")
    return dim.surface_factor * res.value_or_raise()


def exterior_singularity_energy(q: ExteriorProfile, S: float) -> float:
    """Surface term at radius S (the image of the interior one at 1/S):
    N(N-2)/2 omega_N S^{N-2} w(S)^2, evaluated from the public w."""
    dim = q.dim
    return dim.hs_constant * S ** (dim.n - 2) * q.w(S) ** 2


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
    """Both sides of the inversion identities, each by its own quadrature:

        I_interior(eps, 1) = I_exterior(1, 1/eps) + 2 L_exterior(1/eps)
        L_interior(eps)    = L_exterior(1/eps)
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"need 0 < eps < 1, got {eps}")
    q = kelvin_map(p)
    interior = hardy.annulus_functional(p, eps, 1.0)
    exterior = exterior_functional(q, 1.0 / eps)
    l_int = hardy.singularity_energy(p, eps)
    l_ext = exterior_singularity_energy(q, 1.0 / eps)
    return IdentityCheck(
        eps=eps,
        interior=interior,
        exterior=exterior,
        interior_surface=l_int,
        exterior_surface=l_ext,
        defect=interior - exterior - 2.0 * l_ext,
        surface_defect=l_int - l_ext,
    )


def exterior_norm(q: ExteriorProfile,
                  eps_sequence=DEFAULT_EPS_SEQUENCE) -> LimitResult:
    """Exterior squared norm: lim_{eps->0} I_exterior(1/eps) + L_exterior(1/eps).

    The surface term enters with the opposite sign convention from the ball:
    at infinity the hidden energy adds to the functional instead of being cut
    away, and the sum is the quantity unitarily equivalent to the interior
    cutoff norm.
    """
    method = hardy.limit_method(eps_sequence)

    def surface(S: float) -> float:
        if method == "direct":
            return exterior_singularity_energy(q, S)
        return q.dim.hs_constant * q.regular(S) ** 2

    def regularized(eps: float) -> float:
        S = 1.0 / eps
        return exterior_functional(q, S, method=method) + surface(S)

    return integrate_to_limit(regularized, eps_sequence)
