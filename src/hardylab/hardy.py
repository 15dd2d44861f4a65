r"""The critical Hardy functional on the ball and its regularizations.

All integrals are radial: with u = r^-lam v, lam = (N-2)/2, and the surface
factor s_N = N omega_N,

    annulus functional   I(eps, R)  = s_N \int_eps^R (u'^2 - c* u^2/r^2) r^{N-1} dr
    weighted Dirichlet   D(eps, R)  = s_N \int_eps^R v'^2 r dr
    singularity energy   L(eps)     = N(N-2)/2 omega_N v(eps)^2

and the three are tied together by I = D + L(eps) for profiles vanishing at
the outer radius.  The cutoff norm is the limit of I - L along eps -> 0; it
exists (and equals D(0, R)) even when I alone oscillates or diverges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .profiles import MOLLIFY_RADIUS, ORIGIN_CLASSES, Dimension, RadialProfile
from .quadrature import (
    DEEP_EPS_SEQUENCE,
    DEFAULT_EPS_SEQUENCE,
    LimitResult,
    integrate,
    integrate_to_limit,
)

__all__ = [
    "HardyBreakdown",
    "energy_density",
    "reduced_density",
    "eps_grid",
    "running_integral",
    "annulus_functional",
    "weighted_dirichlet",
    "weighted_l2_sq",
    "singularity_energy",
    "cutoff_norm",
    "principal_value",
    "breakdown",
]


@dataclass
class HardyBreakdown:
    """Per-eps decomposition of the annulus functional."""

    eps: float
    annulus: float
    singularity: float
    dirichlet: float
    residual: float


def energy_density(dim: Dimension, v: Callable[[float], float],
                   dv: Callable[[float], float]) -> Callable[[float], float]:
    r"""The Hardy density (u'^2 - c* u^2/r^2) r^{N-1} of u = r^-lam v, written
    in v as ((v' - lam v/r) sqrt(r))^2 - c* (v/sqrt(r))^2.

    The two squares keep the lam^2 v^2/r cancellation near the origin that
    the direct form probes, and neither forms r^(+-lam), so they stay
    representable in every dimension.
    """
    lam = dim.singular_exponent
    c_star = dim.critical_coefficient

    def f(r: float) -> float:
        vr = v(r)
        return ((dv(r) - lam * vr / r) * np.sqrt(r)) ** 2 - c_star * (vr / np.sqrt(r)) ** 2

    return f


def reduced_density(dim: Dimension, v: Callable[[float], float],
                    dv: Callable[[float], float]) -> Callable[[float], float]:
    r"""The same density in the regular part, v'^2 r - 2 lam v v', obtained by
    expanding the square pointwise (no integration by parts).  It never forms
    r^-lam, so it stays representable down to r ~ 1e-250."""
    lam = dim.singular_exponent

    def f(r: float) -> float:
        d = dv(r)
        return (d * np.sqrt(r)) ** 2 - 2.0 * lam * v(r) * d

    return f


def running_integral(integral: Callable[[float, float], float],
                     top: float) -> Callable[[float], float]:
    """F(eps) = integral(eps, top) as a running sum along a decreasing eps
    grid: F(eps_j) = F(eps_{j-1}) + integral(eps_j, eps_{j-1}).

    Each call integrates only the new slice, so the samples of a limit cost
    one pass over the interval instead of one per sample.  When a slice
    raises, the sum and its upper end stay unchanged: the next slice covers
    the gap, and integrate_to_limit drops only that sample.
    """
    total, upper = 0.0, top

    def F(eps: float) -> float:
        nonlocal total, upper
        if not eps < upper:
            raise ValueError(f"eps must decrease below {upper}, got {eps}")
        total, upper = total + integral(eps, upper), eps
        return total

    return F


def weighted_l2_sq(p: RadialProfile) -> float:
    r"""||u||^2_{L^2} computed in the regular part: s_N \int v^2 r dr.

    The identity is exact (the transformation is an isometry onto the
    weighted space), and the v-form never evaluates the singular u near 0.
    The integral starts at MOLLIFY_RADIUS, below which no profile has
    features.
    """
    f = lambda r: (p.v(r) * np.sqrt(r)) ** 2
    res = integrate(f, MOLLIFY_RADIUS, p.support[1])
    return p.dim.surface_factor * res.value_or_raise()


def weighted_dirichlet(p: RadialProfile, eps: float, R: float | None = None) -> float:
    r"""Weighted Dirichlet energy s_N \int_eps^R v'^2 r dr.

    The integral starts no lower than p.flat_below, below which v' is 0, and
    no lower than MOLLIFY_RADIUS, below which no profile has features, so it
    is 0.0 when R lies below either."""
    R = p.support[1] if R is None else R
    if eps < 0.0 or eps >= R:
        raise ValueError(f"need 0 <= eps < R, got eps={eps}, R={R}")
    if R <= max(p.flat_below, MOLLIFY_RADIUS):
        return 0.0
    f = lambda r: (p.dv(r) * np.sqrt(r)) ** 2
    res = integrate(f, max(eps, p.flat_below, MOLLIFY_RADIUS), R)
    return p.dim.surface_factor * res.value_or_raise()


def singularity_energy(p: RadialProfile, eps: float) -> float:
    r"""Surface term N(N-2)/2 * omega_N * v(eps)^2 (radial reduction of the
    sphere integral with \int_{S_eps} f dS = N omega_N eps^{N-1} f(eps)) at
    eps >= 0, where 0 reads the origin limit."""
    if not eps >= 0.0:
        raise ValueError(f"need a radius eps >= 0, got eps={eps}")
    return p.dim.hs_constant * p.v(eps) ** 2


def annulus_functional(p: RadialProfile, eps: float, R: float | None = None,
                       method: str = "direct") -> float:
    r"""\int |grad u|^2 - c* \int u^2/|x|^2 over the annulus eps < r < R.

    method="direct" integrates ``energy_density``, the u-form density written
    in v; its two terms cancel strongly near the origin, which is exactly
    what the decomposition identity probes.  method="reduced" expands the
    square pointwise (no integration by parts) into  v'^2 r - 2 lam v v'  and stays
    representable down to eps ~ 1e-250; every eps -> 0 limit takes its
    samples in this form.  That integrand vanishes with v', so it starts no
    lower than p.flat_below.  The direct form is split at p.flat_below,
    where its density jumps with v' when v' does (as a log ramp's does).

    Only the part of the annulus inside p.support is integrated, so a narrow
    compactly supported profile cannot slip between quadrature nodes; the
    functional is 0.0 where the two do not overlap.
    """
    R = p.support[1] if R is None else R
    if not 0.0 < eps < R:
        raise ValueError(f"need 0 < eps < R, got eps={eps}, R={R}")
    lo, hi = max(eps, p.support[0]), min(R, p.support[1])
    if method == "direct":
        f = energy_density(p.dim, p.v, p.dv)
    elif method == "reduced":
        f = reduced_density(p.dim, p.v, p.dv)
        lo = max(lo, p.flat_below)
    else:
        raise ValueError(f"unknown method {method!r}")

    if not lo < hi:
        return 0.0
    ends = [lo, p.flat_below, hi] if lo < p.flat_below < hi else [lo, hi]
    total = sum(integrate(f, a, b).value_or_raise() for a, b in zip(ends, ends[1:]))
    return p.dim.surface_factor * total


def breakdown(p: RadialProfile, eps: float) -> HardyBreakdown:
    """All three energies at one eps, each by its own route, plus the residual
    of the decomposition identity."""
    annulus = annulus_functional(p, eps)
    sing = singularity_energy(p, eps)
    diri = weighted_dirichlet(p, eps)
    return HardyBreakdown(eps, annulus, sing, diri, annulus - diri - sing)


def eps_grid(p: RadialProfile):
    """Default eps grid per origin class: classes with an origin limit contract
    at least geometrically on 10^-1..10^-6; the others need log(1/eps) itself
    sampled geometrically to reveal their behavior.  A profile that declares
    a flat radius takes the deep grid too, whose slices below that radius
    are 0.0 without an evaluation: its limit is reached wherever the radius
    lies."""
    if ORIGIN_CLASSES[p.origin_class] != "converged" or p.flat_below > 0.0:
        return DEEP_EPS_SEQUENCE
    return DEFAULT_EPS_SEQUENCE


def _running_annulus(p: RadialProfile):
    """The annulus functional on (eps, p.support[1]), slice by slice, in the
    reduced form, which stays representable on every grid."""
    return running_integral(lambda lo, hi: annulus_functional(p, lo, hi, method="reduced"),
                            p.support[1])


def cutoff_norm(p: RadialProfile) -> LimitResult:
    """The cutoff limit lim_{eps->0} (annulus functional - singularity energy).

    This is the correct squared norm for every origin class.  In the reduced
    form each sample is the weighted Dirichlet energy D(eps, R) with
    R = p.support[1], since s_N lam = hs, so the limit is classified on
    those samples: ``converged`` to D(0, R) where the samples settle,
    ``diverging`` where D grows without bound.  The members sin(s^a) of the
    oscillating family read ``diverging`` too: their D(eps, R) rises by
    increments that cos^2(s^a) modulates, which the extrapolants cannot
    follow on this grid.
    """
    annulus = _running_annulus(p)
    return integrate_to_limit(lambda eps: annulus(eps) - singularity_energy(p, eps),
                              eps_grid(p))


def principal_value(p: RadialProfile, eps_sequence=None) -> LimitResult:
    """Principal value of the Hardy functional: limit of the bare annulus
    functional.  Converges for vanishing and finite_limit classes; oscillates
    or diverges exactly when the singularity energy does."""
    eps_sequence = eps_grid(p) if eps_sequence is None else eps_sequence
    return integrate_to_limit(_running_annulus(p), eps_sequence)
