"""Bessel functions J_nu of real order nu >= 0 and their positive zeros.

Values come from ``scipy.special``: ``j0`` and ``j1`` for the orders 0 and
1, which are more than ten times faster than ``jv`` on arrays and as
accurate, and ``jv`` for every other order.  This module adds the domain the
rest of the library relies on (nu >= 0 and x >= 0, enforced with
BesselError) and a cached zero finder for the real orders nu = sqrt(c* - c)
of the subcritical family.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special

__all__ = ["bessel_j", "bessel_zero", "BesselError"]


class BesselError(ValueError):
    """Invalid argument or failed zero bracket."""


def _jv(nu: float, x):
    """scipy's J_nu(x), through the dedicated kernel for orders 0 and 1."""
    if nu == 0.0:
        return special.j0(x)
    if nu == 1.0:
        return special.j1(x)
    return special.jv(nu, x)


def bessel_j(nu: float, x):
    """J_nu(x) for nu >= 0 and x >= 0; accepts a scalar or an ndarray x."""
    if nu < 0.0:
        raise BesselError(f"order must be nonnegative, got nu={nu}")
    arr = np.asarray(x, dtype=float)
    if (arr < 0.0).any():
        raise BesselError(f"argument must be nonnegative, got min x={arr.min()}")
    out = _jv(nu, arr)
    return float(out) if arr.ndim == 0 else out


def _mcmahon_guess(nu: float, k: int) -> float:
    """McMahon asymptotic estimate of the k-th positive zero of J_nu."""
    beta = (k + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    z = beta - (mu - 1.0) / (8.0 * beta)
    z -= 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * beta) ** 3)
    return z


@lru_cache(maxsize=4096)
def bessel_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu (k >= 1), to about 1e-12 absolute.

    A McMahon estimate seeds a Newton iteration that is clipped to a sign
    bracket; bisection steps take over whenever Newton leaves the bracket,
    and the iteration stops once a step is at most 1e-13.
    Cached: zeros are reused constantly by spectra and panel splitting.
    """
    if nu < 0.0:
        raise BesselError(f"order must be nonnegative, got nu={nu}")
    if k < 1:
        raise BesselError(f"zero index must be >= 1, got k={k}")

    try:
        guess = _mcmahon_guess(nu, k)
    except OverflowError:
        guess = math.inf
    if not math.isfinite(guess):
        raise BesselError(f"zero index too large: the estimate of zero k of J_{nu} is not finite")
    # establish a sign-change bracket around the guess; every point the
    # search evaluates is positive, so it calls scipy's kernel directly
    width = 0.25 * math.pi
    lo, hi = guess - width, guess + width
    lo = max(lo, 1e-8 if k == 1 else _mcmahon_guess(nu, k - 1) + 1e-8)
    flo, fhi = _jv(nu, lo), _jv(nu, hi)
    tries = 0
    while flo * fhi > 0.0:
        lo = max(lo - 0.5 * width, 1e-10)
        hi = hi + 0.5 * width
        flo, fhi = _jv(nu, lo), _jv(nu, hi)
        tries += 1
        if tries > 40:
            raise BesselError(f"could not bracket zero {k} of J_{nu}")

    x = guess if lo < guess < hi else 0.5 * (lo + hi)
    for _ in range(100):
        f = _jv(nu, x)
        if f == 0.0:
            return float(x)
        if f * flo < 0.0:
            hi = x
        else:
            lo, flo = x, f
        # J_nu' = (nu/x) J_nu - J_{nu+1}, which is exactly -J_1 for nu = 0
        df = (nu / x) * f - _jv(nu + 1.0, x)
        step = f / df if df != 0.0 else float("inf")
        x_new = x - step
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-13:
            return float(x_new)
        x = x_new
    raise BesselError(f"zero search did not converge for nu={nu}, k={k}")
