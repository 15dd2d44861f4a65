"""Radial spectrum of the critical operator on the unit ball.

The regular part of the k-th radial eigenfunction is v_k(r) = J_0(z_k r)
with z_k the k-th positive zero of J_0; the eigenvalue is mu_k = z_k^2 for
every dimension N >= 3 (the regular-part problem is the 2-d radial one).
Modes are normalized by v_k(0) = 1, with the weighted L^2 norm recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hardy
from .profiles import Dimension, RadialProfile, make_mode
from .quadrature import integrate
from .specfun import bessel_j, bessel_zero

__all__ = ["EigenMode", "SpectralField", "eigenmode", "rayleigh", "expand",
           "subcritical_limit"]


@dataclass(frozen=True)
class EigenMode:
    dim: Dimension
    k: int
    zero: float
    eigenvalue: float
    norm2: float  # weighted L^2 norm^2 of v_k: N omega_N J_1(z_k)^2 / 2

    def profile(self) -> RadialProfile:
        return make_mode(self.dim, self.k)


def eigenmode(dim: Dimension, k: int) -> EigenMode:
    r"""k-th radial mode; norm2 uses the closed form \int_0^1 J_0(z r)^2 r dr
    = J_1(z)^2/2 valid at zeros of J_0."""
    if k < 1:
        raise ValueError(f"mode index must be >= 1, got {k}")
    z = bessel_zero(0.0, k)
    j1 = bessel_j(1.0, z)
    return EigenMode(dim, k, z, z * z, dim.surface_factor * 0.5 * j1 * j1)


@dataclass
class SpectralField:
    """Finite expansion over radial modes at a fixed time."""

    modes: list[EigenMode]
    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if len(self.modes) != self.coeffs.size:
            raise ValueError("one coefficient per mode required")

    def v(self, r):
        out = 0.0
        for mode, c in zip(self.modes, self.coeffs):
            out = out + c * bessel_j(0.0, mode.zero * r)
        return out

    def dv(self, r):
        out = 0.0
        for mode, c in zip(self.modes, self.coeffs):
            out = out - c * mode.zero * bessel_j(1.0, mode.zero * r)
        return out

    def norm_sq(self) -> float:
        """Weighted L^2 norm^2 by Parseval: sum c_k^2 norm2_k."""
        return float(sum(c * c * m.norm2 for c, m in zip(self.coeffs, self.modes)))

    def dirichlet_sq(self) -> float:
        """Weighted Dirichlet energy: sum c_k^2 mu_k norm2_k."""
        return float(sum(c * c * m.eigenvalue * m.norm2
                         for c, m in zip(self.coeffs, self.modes)))

    def profile(self) -> RadialProfile:
        dim = self.modes[0].dim
        return RadialProfile(dim=dim, v=self.v, dv=self.dv, support=(0.0, 1.0),
                             origin_class="finite_limit", name="spectral_field")


def rayleigh(p: RadialProfile) -> float:
    """Cutoff-norm Rayleigh quotient ||u||^2_H / ||u||^2_{L^2}."""
    return hardy.cutoff_norm(p).limit_or_raise() / hardy.weighted_l2_sq(p)


def expand(p: RadialProfile, K: int) -> SpectralField:
    r"""Project onto the first K radial modes in the weighted L^2 pairing:
    c_k = s_N \int v(r) J_0(z_k r) r dr / norm2_k."""
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    dim = p.dim
    R = p.support[1]
    if R > 1.0:
        raise ValueError("expansion lives on the unit ball")
    modes = [eigenmode(dim, k) for k in range(1, K + 1)]
    coeffs = []
    for mode in modes:
        f = lambda r, z=mode.zero: p.v(r) * bessel_j(0.0, z * r) * r
        val = integrate(f, 0.0, R, singular_end="left").value_or_raise()
        coeffs.append(dim.surface_factor * val / mode.norm2)
    return SpectralField(modes, np.array(coeffs), time=0.0)


def subcritical_limit(dim: Dimension, c_sequence) -> list[tuple[float, float]]:
    """Squared norm of the normalized first eigenprofile for each coupling
    c < c*: z_{m,1}^2 with m = sqrt(c* - c), decreasing to z_{0,1}^2 as
    c increases to c*.

    The value is computed from the zero finder; the identification of
    z_{m,1}^2 with the quadrature Rayleigh quotient of the constructed
    profile is a separate (tested) identity.
    """
    c_star = dim.critical_coefficient
    out = []
    for c in c_sequence:
        if not 0.0 <= c < c_star:
            raise ValueError(f"need 0 <= c < {c_star}, got {c}")
        m = math.sqrt(c_star - c)
        z = bessel_zero(m, 1)
        out.append((float(c), z * z))
    return out
