"""Bessel functions J_nu of real order nu >= 0, derivatives, and positive zeros.

Values come from ``scipy.special``: ``j0`` and ``j1`` for the orders 0 and
1, which are more than ten times faster than ``jv`` on arrays and as
accurate, and ``jv`` for every other order.  This module adds the domain the
rest of the library relies on (nu >= 0 and x >= 0, enforced with
BesselError), the derivative through orders nu and nu + 1 only, and a cached
zero finder for the real orders nu = sqrt(c* - c) of the subcritical family.
A float argument takes a scalar path that builds no numpy array (the zero
finder calls it one point at a time); an array argument is evaluated
elementwise.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special

__all__ = ["bessel_j", "bessel_j_deriv", "bessel_zero", "BesselError"]


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
    if isinstance(x, float):
        if x < 0.0:
            raise BesselError(f"argument must be nonnegative, got x={x}")
        return float(_jv(nu, x))
    arr = np.asarray(x, dtype=float)
    if (arr < 0.0).any():
        raise BesselError(f"argument must be nonnegative, got min x={arr.min()}")
    out = _jv(nu, arr)
    return float(out) if arr.ndim == 0 else out


def bessel_j_deriv(nu: float, x):
    """dJ_nu/dx via the recurrence J_nu' = (nu/x) J_nu - J_{nu+1}.

    For nu = 0 this is exactly -J_1.  The recurrence only touches orders
    nu and nu+1, so no negative orders are ever required.
    """
    if nu == 0.0:
        return -bessel_j(1.0, x)
    arr = np.asarray(x, dtype=float)
    origin = arr == 0.0
    if (arr < 0.0).any() or (nu != 1.0 and origin.any()):
        raise BesselError(f"derivative needs x > 0 for fractional order, got min x={arr.min()}")
    # J_1'(0) = 1/2; elsewhere the recurrence at x > 0
    safe = np.where(origin, 1.0, arr)
    out = np.where(origin, 0.5, (nu / safe) * bessel_j(nu, safe) - bessel_j(nu + 1.0, safe))
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
    # establish a sign-change bracket around the guess
    width = 0.25 * math.pi
    lo, hi = guess - width, guess + width
    lo = max(lo, 1e-8 if k == 1 else _mcmahon_guess(nu, k - 1) + 1e-8)
    flo, fhi = bessel_j(nu, lo), bessel_j(nu, hi)
    tries = 0
    while flo * fhi > 0.0:
        lo = max(lo - 0.5 * width, 1e-10)
        hi = hi + 0.5 * width
        flo, fhi = bessel_j(nu, lo), bessel_j(nu, hi)
        tries += 1
        if tries > 40:
            raise BesselError(f"could not bracket zero {k} of J_{nu}")

    x = guess if lo < guess < hi else 0.5 * (lo + hi)
    for _ in range(100):
        f = bessel_j(nu, x)
        if f == 0.0:
            return x
        if f * flo < 0.0:
            hi = x
        else:
            lo, flo = x, f
        df = bessel_j_deriv(nu, x)
        step = f / df if df != 0.0 else float("inf")
        x_new = x - step
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-13:
            return x_new
        x = x_new
    raise BesselError(f"zero search did not converge for nu={nu}, k={k}")
