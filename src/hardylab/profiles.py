"""Radial test profiles stored through their regular part.

A profile represents u(r) = r^{-(N-2)/2} v(r) on a radial support interval,
with v the regular part.  Everything downstream (energies, spectra, maps)
works with v and dv; u is reconstructed on demand.

Origin behavior is tagged with one of four classes:

* ``vanishing``      v -> 0 at the origin (u lies in the classical H^1_0 range)
* ``finite_limit``   v has a finite nonzero limit at the origin, which v(0.0) reads
* ``oscillating``    v stays bounded but has no limit
* ``log_divergent``  v grows (like a power of log 1/r) toward the origin

Profiles whose regular part involves powers of log(1/r) are frozen to a
constant below MOLLIFY_RADIUS so that every evaluation stays finite.  The
freeze radius is far below anything probed numerically: classification
experiments sample down to r ~ 1e-250.

A profile may declare ``flat_below``, a radius below which dv is exactly 0
(bump, plateau, log ramp and the logarithmic cutoff do).  Integrals from the
origin whose integrand vanishes with dv start there instead of grading down
to MOLLIFY_RADIUS.  The default 0.0 declares nothing.

``v`` and ``dv`` are array functions without branches on their argument: an
array of radii gives an array, and a float radius gives a float.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .specfun import bessel_j, bessel_zero

__all__ = [
    "Dimension",
    "RadialProfile",
    "ORIGIN_CLASSES",
    "MOLLIFY_RADIUS",
    "make_e1",
    "make_mode",
    "make_subcritical",
    "make_named",
    "named_profile",
    "cubic_step",
]

ORIGIN_CLASSES = ("vanishing", "finite_limit", "oscillating", "log_divergent")

#: radius below which log-type regular parts are frozen to a constant
MOLLIFY_RADIUS = 1e-290


@dataclass(frozen=True)
class Dimension:
    """Ambient dimension N >= 3 with the constants attached to it."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"dimension must be >= 3, got {self.n}")

    @property
    def critical_coefficient(self) -> float:
        """(N-2)^2/4, the borderline coupling of the inverse-square potential."""
        return 0.25 * (self.n - 2) ** 2

    @property
    def singular_exponent(self) -> float:
        """(N-2)/2: u = r^(-singular_exponent) v."""
        return 0.5 * (self.n - 2)

    @property
    def ball_volume(self) -> float:
        """Lebesgue measure of the unit ball."""
        return math.pi ** (self.n / 2.0) / math.gamma(self.n / 2.0 + 1.0)

    @property
    def surface_factor(self) -> float:
        """N * omega_N: |S^{N-1}| so that dx = surface_factor * r^{N-1} dr."""
        return self.n * self.ball_volume

    @property
    def hs_constant(self) -> float:
        """N(N-2)/2 * omega_N, the prefactor of the singularity energy."""
        return 0.5 * self.n * (self.n - 2) * self.ball_volume


@dataclass
class RadialProfile:
    """Radial function stored via its regular part v, with u = r^-lam * v.

    ``flat_below`` is a fact about dv: dv(r) == 0.0 for every r below it.
    ``dataclasses.replace`` copies it, which is right for a copy that keeps
    dv's values (a counted copy), so every ``replace`` that swaps
    dv for another function states ``flat_below=0.0`` unless it can prove a
    radius of its own.
    """

    dim: Dimension
    v: Callable[[float], float]
    dv: Callable[[float], float]
    support: tuple[float, float]
    origin_class: str
    name: str = ""
    member: bool = True
    flat_below: float = 0.0

    def __post_init__(self) -> None:
        if self.origin_class not in ORIGIN_CLASSES:
            raise ValueError(f"unknown origin class {self.origin_class!r}")
        lo, hi = self.support
        if not (0.0 <= lo < hi):
            raise ValueError(f"bad support interval {self.support}")
        if not 0.0 <= self.flat_below < hi:
            raise ValueError(f"flat_below={self.flat_below} outside [0, {hi})")

    def u(self, r: float) -> float:
        return r ** (-self.dim.singular_exponent) * self.v(r)

    def du(self, r: float) -> float:
        lam = self.dim.singular_exponent
        return r ** (-lam) * (self.dv(r) - lam * self.v(r) / r)


def make_e1(dim: Dimension) -> RadialProfile:
    """Ground radial mode on the unit ball: v(r) = J_0(z1 r), v(1) = 0."""
    return make_mode(dim, 1)


def make_mode(dim: Dimension, k: int) -> RadialProfile:
    """k-th radial mode: v(r) = J_0(z_k r) with z_k the k-th zero of J_0."""
    z = bessel_zero(0.0, k)
    return RadialProfile(
        dim=dim,
        v=lambda r: bessel_j(0.0, z * r),
        dv=lambda r: -z * bessel_j(1.0, z * r),
        support=(0.0, 1.0),
        origin_class="finite_limit",
        name=f"mode{k}",
    )


def make_subcritical(dim: Dimension, c: float) -> RadialProfile:
    """First eigenprofile of the subcritical coupling c in [0, c*):
    u(r) = r^{-(N-2)/2} J_m(z r) with m = sqrt(c* - c) and z the first zero
    of J_m, eigenvalue z^2.

    Regular part relative to the critical transformation: v(r) = J_m(z r),
    which behaves like r^m near the origin, so v(0) = 0 for m > 0.
    """
    c_star = dim.critical_coefficient
    if not 0.0 <= c < c_star:
        raise ValueError(f"need 0 <= c < {c_star}, got c={c}")
    m = math.sqrt(c_star - c)
    z = bessel_zero(m, 1)

    def v(r: float) -> float:
        return bessel_j(m, z * r)

    def dv(r):
        # J_m'(x) = (m/x) J_m(x) - J_{m+1}(x)
        r = np.asarray(r, dtype=float)
        return ((m / r) * bessel_j(m, z * r) - z * bessel_j(m + 1.0, z * r))[()]

    return RadialProfile(
        dim=dim,
        v=v,
        dv=dv,
        support=(0.0, 1.0),
        origin_class="vanishing",
        name=f"subcritical(c={c:g})",
    )


def _step_parts(t):
    """(t, exp(-1/t), exp(-1/(1-t))) with t clipped into (0, 1): at the clip
    ends one exponential is exactly 0, so the step is exactly 0 or 1 there."""
    t = np.clip(t, 1e-150, np.nextafter(1.0, 0.0))
    return t, np.exp(-1.0 / t), np.exp(-1.0 / (1.0 - t))


def _smooth_step(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1."""
    _, a, b = _step_parts(t)
    return a / (a + b)


def _smooth_step_and_deriv(t):
    """The smooth step and its derivative in t, from one pair of exponentials."""
    t, a, b = _step_parts(t)
    da = a / (t * t)
    db = -b / ((1.0 - t) * (1.0 - t))
    return a / (a + b), (da * (a + b) - a * (da + db)) / (a + b) ** 2


def cubic_step(t):
    """The cubic step rho(t) = t^2 (3 - 2t) on [0, 1], clamped outside, and
    its derivative rho'(t) = 6t(1 - t), 0 outside: rho(0) = 0, rho(1) = 1
    and rho'(0) = rho'(1) = 0."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t), 6.0 * t * (1.0 - t)


def _hermite(x0: float, x1: float, p0: float, m0: float, p1: float, m1: float):
    """Cubic Hermite interpolant and its derivative on [x0, x1]."""
    w = x1 - x0

    def h(x: float) -> float:
        t = (x - x0) / w
        h00 = (1.0 + 2.0 * t) * (1.0 - t) ** 2
        h10 = t * (1.0 - t) ** 2
        h01 = t * t * (3.0 - 2.0 * t)
        h11 = t * t * (t - 1.0)
        return h00 * p0 + h10 * w * m0 + h01 * p1 + h11 * w * m1

    def dh(x: float) -> float:
        t = (x - x0) / w
        d00 = 6.0 * t * (t - 1.0)
        d10 = (1.0 - t) * (1.0 - 3.0 * t)
        d01 = 6.0 * t * (1.0 - t)
        d11 = t * (3.0 * t - 2.0)
        return (d00 * p0 + d01 * p1) / w + d10 * m0 + d11 * m1

    return h, dh


def _log_family(dim: Dimension, a: float, oscillate: bool) -> RadialProfile:
    """Profiles driven by s = log(1/r): v = s^a or v = sin(s^a) near the origin.

    The pure law holds on (MOLLIFY_RADIUS, r_c] with r_c = 1/e; a cubic Hermite
    bridge takes v to 0 at r = 1 with zero slope there.  Membership in the
    weighted Dirichlet space requires 0 < a < 1/2; a >= 1/2 is allowed for
    stress tests and flagged as non-member.  a <= 0 is refused: s^a no
    longer grows, so neither origin class of the family would be right.
    """
    if not a > 0.0:
        raise ValueError(f"the log family needs a > 0, got a={a}")
    r_c = math.exp(-1.0)
    if oscillate:
        p_c = math.sin(1.0)
        m_c = -a * math.cos(1.0) / r_c
    else:
        p_c = 1.0
        m_c = -a / r_c
    bridge, dbridge = _hermite(r_c, 1.0, p_c, m_c, 0.0, 0.0)

    def law(r):
        """(r, s = log(1/r)) with r clipped to the pure law's range; the
        clip at MOLLIFY_RADIUS is the freeze."""
        r = np.clip(r, MOLLIFY_RADIUS, r_c)
        return r, np.log(1.0 / r)

    def v(r):
        _, s = law(r)
        pure = np.sin(s**a) if oscillate else s**a
        return np.where(r >= 1.0, 0.0, np.where(r > r_c, bridge(r), pure))[()]

    def dv(r):
        rl, s = law(r)
        if oscillate:
            pure = -a * np.cos(s**a) * s ** (a - 1.0) / rl
        else:
            pure = -a * s ** (a - 1.0) / rl
        out = np.where(r > r_c, dbridge(r), pure)
        return np.where((r >= 1.0) | (r <= MOLLIFY_RADIUS), 0.0, out)[()]

    kind = "oscillating" if oscillate else "log_power"
    return RadialProfile(
        dim=dim,
        v=v,
        dv=dv,
        support=(0.0, 1.0),
        origin_class="oscillating" if oscillate else "log_divergent",
        name=f"{kind}({a:g})",
        member=0.0 < a < 0.5,
    )


def _bump(dim: Dimension, fall: tuple[float, float],
          rise: tuple[float, float] | None, height: float) -> RadialProfile:
    """Smooth compactly supported profile; flat at ``height`` between the
    optional rise window and the fall window."""
    b0, b1 = fall
    if rise is not None:
        a0, a1 = rise
        if not 0.0 <= a0 < a1 <= b0:
            raise ValueError("rise window must precede the fall window")
    if not 0.0 <= b0 < b1:
        raise ValueError("bad fall window")

    def v(r):
        out = height * _smooth_step((b1 - r) / (b1 - b0))
        if rise is not None:
            out = out * _smooth_step((r - rise[0]) / (rise[1] - rise[0]))
        return out

    def dv(r):
        down, ddown = _smooth_step_and_deriv((b1 - r) / (b1 - b0))
        ddown = -ddown / (b1 - b0)
        if rise is None:
            return height * ddown
        up, dup = _smooth_step_and_deriv((r - rise[0]) / (rise[1] - rise[0]))
        dup = dup / (rise[1] - rise[0])
        return height * (dup * down + up * ddown)

    return RadialProfile(
        dim=dim,
        v=v,
        dv=dv,
        support=(rise[0] if rise is not None else 0.0, b1),
        origin_class="finite_limit" if rise is None else "vanishing",
        name="bump" if rise is None else "annular_bump",
        flat_below=b0 if rise is None else rise[0],
    )


def _constant_plateau(dim: Dimension, plateau_end: float, support_end: float,
                      height: float) -> RadialProfile:
    """v = height on [0, plateau_end], the cubic step down to 0 at support_end."""
    if not 0.0 < plateau_end < support_end:
        raise ValueError("need 0 < plateau_end < support_end")
    w = support_end - plateau_end

    def v(r):
        return height * (1.0 - cubic_step((r - plateau_end) / w)[0])

    def dv(r):
        return -height * cubic_step((r - plateau_end) / w)[1] / w

    return RadialProfile(
        dim=dim,
        v=v,
        dv=dv,
        support=(0.0, support_end),
        origin_class="finite_limit",
        name="constant_plateau",
        flat_below=plateau_end,
    )


def _log_ramp(dim: Dimension, delta: float) -> RadialProfile:
    """v = 1 below delta, log(r)/log(delta) up to r = 1: nearly minimizes the
    weighted Dirichlet energy at fixed unit trace, so the surface energy
    dominates the functional."""
    if not MOLLIFY_RADIUS <= delta < 1.0:
        raise ValueError(f"need MOLLIFY_RADIUS <= delta < 1, got delta={delta}")
    ln_d = math.log(delta)

    def v(r):
        return np.where(r <= delta, 1.0, np.log(np.clip(r, delta, 1.0)) / ln_d)[()]

    def dv(r):
        inside = (r > delta) & (r < 1.0)
        return np.where(inside, 1.0 / (np.clip(r, delta, 1.0) * ln_d), 0.0)[()]

    return RadialProfile(dim=dim, v=v, dv=dv, support=(0.0, 1.0),
                         origin_class="finite_limit", name=f"log_ramp({delta:g})",
                         flat_below=delta)


def make_named(dim: Dimension, kind: str, **params) -> RadialProfile:
    """Construct a profile of a named kind: the one table of profile names
    and of their default parameters.

    kinds: ``e1``, ``mode`` (param k=2), ``subcritical`` (param c=0),
    ``log_power`` and ``oscillating`` (param a=0.3), ``log_ramp`` (param
    delta=1e-6), ``bump`` (params fall=(0.4, 0.8), rise=None, height=1),
    ``annular_bump`` (the bump with fall=(0.65, 0.8), rise=(0.2, 0.35)) and
    ``constant_plateau`` (params plateau_end=0.4, support_end=0.9,
    height=1).
    """
    if kind == "e1":
        return make_e1(dim)
    if kind == "mode":
        k = float(params.get("k", 2))
        if not k.is_integer():
            raise ValueError(f"mode index must be a whole number, got {k:g}")
        return make_mode(dim, int(k))
    if kind == "subcritical":
        return make_subcritical(dim, float(params.get("c", 0.0)))
    if kind == "log_power":
        return _log_family(dim, float(params.get("a", 0.3)), oscillate=False)
    if kind == "oscillating":
        return _log_family(dim, float(params.get("a", 0.3)), oscillate=True)
    if kind == "log_ramp":
        return _log_ramp(dim, float(params.get("delta", 1e-6)))
    if kind in ("bump", "annular_bump"):
        annular = kind == "annular_bump"
        return _bump(dim,
                     fall=tuple(params.get("fall", (0.65, 0.8) if annular else (0.4, 0.8))),
                     rise=params.get("rise", (0.2, 0.35) if annular else None),
                     height=float(params.get("height", 1.0)))
    if kind == "constant_plateau":
        return _constant_plateau(dim,
                                 plateau_end=float(params.get("plateau_end", 0.4)),
                                 support_end=float(params.get("support_end", 0.9)),
                                 height=float(params.get("height", 1.0)))
    raise ValueError(f"unknown profile kind {kind!r}")


_NAME_RE = re.compile(r"^(?P<head>[a-z_0-9]+?)(?:\((?P<arg>[-+0-9.e]+)\))?$")

#: the kinds whose name takes an argument, "(X)", and the parameter it sets
_NAME_ARG = {"mode": "k", "subcritical": "c", "log_power": "a",
             "oscillating": "a", "log_ramp": "delta"}


def named_profile(dim: Dimension, text: str) -> RadialProfile:
    """Profile addressed by a string name, e.g. from a command line: a
    ``make_named`` kind, where "(X)" sets the one parameter of ``mode``,
    ``subcritical``, ``log_power``, ``oscillating`` and ``log_ramp``."""
    m = _NAME_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse profile name {text!r}")
    head, arg = m.group("head"), m.group("arg")
    if arg is None:
        return make_named(dim, head)
    if head not in _NAME_ARG:
        raise ValueError(f"profile name {text!r}: only {', '.join(_NAME_ARG)} "
                         "take an argument")
    return make_named(dim, head, **{_NAME_ARG[head]: float(arg)})
