r"""Density and non-density experiments in the weighted Dirichlet norm, the
ground-mode approximation obstruction, and the dimension-reduction isometry.

Cutting a profile off near the origin with a rescaled ``profiles.cubic_step``
leaves a defect that does NOT vanish: it converges to N omega_N v(0)^2
\int_1^2 t rho'(t)^2 dt.  A logarithmic ramp between eps^2 and eps does the
job, with defect O(1/log(1/eps)).  The same obstruction makes the ground mode
unapproachable by profiles vanishing at the origin: the squared distance in
the principal-value functional never drops below N(N-2)/2 omega_N v(0)^2.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import hardy
from .profiles import MOLLIFY_RADIUS, RadialProfile, cubic_step, make_e1
from .quadrature import DEEP_EPS_SEQUENCE, integrate

__all__ = ["smoothstep_energy", "naive_cutoff_defect", "naive_cutoff_limit",
           "log_cutoff", "log_cutoff_defect", "e1_obstruction", "dim_reduction",
           "level_truncation_defect"]


def smoothstep_energy() -> float:
    r"""\int_1^2 t rho'(t)^2 dt = \int_0^1 36 (1+s) s^2 (1-s)^2 ds = 9/5, in
    closed form for the cutoff ramp rho(t) = ``cubic_step(t - 1)``."""
    return 9.0 / 5.0


def _require_origin_limit(p: RadialProfile) -> None:
    """The naive cutoff experiment needs v(0): refuse profiles without it."""
    if p.origin_class not in ("finite_limit", "vanishing"):
        raise ValueError("the cutoff obstruction experiment needs a bounded origin limit")


def naive_cutoff_defect(p: RadialProfile, eps: float) -> float:
    """Weighted-Dirichlet distance^2 between v and rho(r/eps) v, with
    rho(t) = ``cubic_step(t - 1)``, whose end slopes vanish.

    The difference is supported on (0, 2 eps); its derivative is
    rho'(r/eps) v / eps + (rho - 1) v'.
    """
    _require_origin_limit(p)
    if not 0.0 < 2.0 * eps < p.support[1]:
        raise ValueError(f"eps={eps} too large for support {p.support}")

    def f(r: float) -> float:
        rho, drho = cubic_step(r / eps - 1.0)
        d = drho * p.v(r) / eps + (rho - 1.0) * p.dv(r)
        return d * d * r

    # below eps the difference is -dv, so the defect there is D(0, eps)
    outer = integrate(f, eps, 2.0 * eps).value_or_raise()
    return p.dim.surface_factor * outer + hardy.weighted_dirichlet(p, 0.0, eps)


def naive_cutoff_limit(p: RadialProfile) -> float:
    r"""The eps -> 0 value of the naive defect: N omega_N v(0)^2 \int t rho'^2."""
    _require_origin_limit(p)
    return p.dim.surface_factor * p.v(0.0) ** 2 * smoothstep_energy()


def log_cutoff(p: RadialProfile, eps: float) -> RadialProfile:
    """p times the logarithmic ramp: 0 below eps^2, log(r/eps^2)/log(1/eps)
    up to eps, 1 beyond.  Its regular part vanishes at the origin.  The ramp
    starts where profiles still have features: eps^2 >= MOLLIFY_RADIUS."""
    e2 = eps * eps
    if not (0.0 < eps < 1.0 and e2 >= MOLLIFY_RADIUS):
        raise ValueError(f"need 0 < eps < 1 with eps^2 >= MOLLIFY_RADIUS = "
                         f"{MOLLIFY_RADIUS:g}, got eps={eps}")
    c = 1.0 / math.log(1.0 / eps)

    def ramp(r):
        return np.where(r >= eps, 1.0, c * np.log(np.clip(r, e2, eps) / e2))

    def dramp(r):
        return np.where((e2 < r) & (r < eps), c / np.clip(r, e2, eps), 0.0)

    return RadialProfile(
        dim=p.dim,
        v=lambda r: ramp(r) * p.v(r),
        dv=lambda r: dramp(r) * p.v(r) + ramp(r) * p.dv(r),
        support=p.support,
        origin_class="vanishing",
        name=f"log_cutoff({eps:g})[{p.name}]",
        flat_below=e2,
    )


def log_cutoff_defect(p: RadialProfile, eps: float) -> float:
    """Weighted-Dirichlet distance^2 between p and ``log_cutoff(p, eps)``.
    Bounded by C/log(1/eps)."""
    q = log_cutoff(p, eps)
    e2 = q.flat_below  # the ramp's inner end, eps^2

    def f(r):
        # (q' - p')^2 r, ordered so that the ramp's c/r meets r before it
        # is squared: it stays finite down to eps^2 = MOLLIFY_RADIUS
        d = q.dv(r) - p.dv(r)
        return d * (d * r)

    mid = integrate(f, e2, eps, singular_end="left").value_or_raise()
    # below eps^2 the cut profile is 0, so the defect there is v's own energy
    return p.dim.surface_factor * mid + hardy.weighted_dirichlet(p, 0.0, e2)


def e1_obstruction(phi: RadialProfile) -> float:
    """Principal-value distance^2 between the ground mode and a profile whose
    regular part vanishes at the origin; bounded below by N(N-2)/2 omega_N."""
    if phi.origin_class != "vanishing":
        raise ValueError("the obstruction bound applies to vanishing-class competitors")
    if phi.support[1] > 1.0 + 1e-12:
        raise ValueError("competitor must live on the unit ball")
    e1 = make_e1(phi.dim)
    diff = replace(e1, v=lambda r: e1.v(r) - phi.v(r),
                   dv=lambda r: e1.dv(r) - phi.dv(r),
                   name=f"e1-{phi.name}" if phi.name else "e1-phi", flat_below=0.0)
    # competitors may differ from the ground mode only at arbitrarily small
    # radii, so the cut radius must go all the way down the deep sequence
    return hardy.principal_value(diff, eps_sequence=DEEP_EPS_SEQUENCE).limit_or_raise()


def dim_reduction(p: RadialProfile, R: float) -> float:
    r"""Map v on the ball of radius R to w(t) = v(r(t)) with
    r(t) = R exp(-t^{-(N-2)}) and return the ratio of the two Dirichlet
    energies, weighted s_N \int_0^R v'^2 r dr over flat
    s_N \int_0^inf w'(t)^2 t^{N-1} dt, each by its own quadrature.  The
    ratio is 1/(N-2), independent of R."""
    dim = p.dim
    n = dim.n
    nm2 = float(n - 2)

    lhs = hardy.weighted_dirichlet(p, 0.0, R)

    def w_integrand(t):
        r = R * np.exp(-t ** (-nm2))
        drdt = r * nm2 * t ** (-(n - 1.0))
        return np.where(r == 0.0, 0.0, (p.dv(r) * drdt) ** 2 * t ** (n - 1.0))

    # w' vanishes where r(t) <= flat_below, that is for t <= t_lo
    t_lo = math.log(R / p.flat_below) ** (-1.0 / nm2) if p.flat_below > 0.0 else 0.0
    near = integrate(w_integrand, t_lo, 1.0, singular_end="left").value_or_raise() \
        if t_lo < 1.0 else 0.0
    # map t in [1, inf) to tau = 1/t in (0, 1]; the transformed integrand is
    # bounded (~ tau^{N-3}) at tau = 0
    far = integrate(lambda tau: w_integrand(1.0 / tau) / (tau * tau),
                    0.0, 1.0 / max(t_lo, 1.0), singular_end="left").value_or_raise()
    rhs = dim.surface_factor * (near + far)
    return lhs / rhs


def level_truncation_defect(p: RadialProfile, level: float) -> float:
    r"""Energy of v above the cut level n: s_N \int_{|v| > n} v'^2 r dr.

    Nonincreasing in the level and vanishing as it grows, for any profile of
    finite weighted Dirichlet energy.
    """
    if level <= 0.0:
        raise ValueError("level must be positive")

    def f(r):
        return np.where(np.abs(p.v(r)) <= level, 0.0, (p.dv(r) * np.sqrt(r)) ** 2)

    res = integrate(f, max(MOLLIFY_RADIUS, p.flat_below), p.support[1], singular_end="left")
    return p.dim.surface_factor * res.value_or_raise()
