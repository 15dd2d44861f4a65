"""Bessel functions J_nu of real order nu >= 0 and their positive zeros.

Values come from ``scipy.special``: ``j0`` and ``j1`` for the orders 0 and
1, which are more than ten times faster than ``jv`` on arrays and as
accurate, and ``jv`` for every other order.  This module adds the domain the
rest of the library relies on (nu >= 0 and x >= 0, enforced with
BesselError) and a cached zero finder for the real orders nu = sqrt(c* - c)
of the subcritical family, up to 169.5: it brackets zero k around McMahon's
estimate where k >= nu and by counting sign changes upward from nu below.
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


@lru_cache(maxsize=4096, typed=True)  # typed: a cached k = 2 must not admit k = 2.0
def bessel_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu (a whole k >= 1), to about 1e-12 absolute.

    Where k >= nu the zero lies within pi/4 of McMahon's estimate.  Where
    k < nu the estimate can lie several zeros too high, so the bracket is
    the k-th unit step upward from nu on which J_nu changes sign: no zero
    lies below nu, and consecutive zeros lie more than 3 apart.  Newton
    steps clipped to the bracket follow, bisection steps take over whenever
    Newton leaves it, and the iteration stops once a step is at most 1e-13.
    Cached: zeros are reused constantly by spectra and panel splitting.
    """
    if nu < 0.0:
        raise BesselError(f"order must be nonnegative, got nu={nu}")
    if not isinstance(k, (int, np.integer)):
        raise BesselError(f"zero index must be a whole number, got k={k!r}")
    if k < 1:
        raise BesselError(f"zero index must be >= 1, got k={k}")

    # every point the search evaluates is positive, so it calls scipy's
    # kernel directly
    if k >= nu:
        try:  # McMahon's asymptotic estimate, the first Newton point
            beta, mu = (k + 0.5 * nu - 0.25) * math.pi, 4.0 * nu * nu
            x = beta - (mu - 1.0) / (8.0 * beta)
            x -= 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * beta) ** 3)
        except OverflowError:
            x = math.inf
        if not math.isfinite(x):
            raise BesselError(f"zero index too large: the estimate of zero k of J_{nu} "
                              "is not finite")
        lo, hi = x - 0.25 * math.pi, x + 0.25 * math.pi
        flo, fhi = _jv(nu, lo), _jv(nu, hi)
        if not flo * fhi <= 0.0:
            raise BesselError(f"could not bracket zero {k} of J_{nu}")
    else:
        hi, fhi, seen = nu, _jv(nu, nu), 0
        for _ in range(4096):  # the zeros k < nu of orders up to about 1,000
            lo, flo = hi, fhi
            hi, fhi = lo + 1.0, _jv(nu, lo + 1.0)
            # a zero that a step hits exactly is counted on the step ending
            # there, and the search below starts and ends on it
            seen += flo != 0.0 and flo * fhi <= 0.0
            if seen == k:
                break
        else:
            raise BesselError(f"could not bracket zero {k} of J_{nu}")
        x = hi if fhi == 0.0 else lo + 0.5

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
