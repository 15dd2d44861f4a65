"""Numerical laboratory for the critical inverse-square Hardy operator.

Library layout:

* ``specfun``    Bessel J of real order and its zeros
* ``quadrature`` singular-endpoint adaptive quadrature, limit extrapolation
* ``profiles``   radial test profiles via their regular part
* ``hardy``      annulus functional, singularity energy, cutoff norm
* ``spectrum``   radial eigenmodes, Rayleigh quotients, expansions
* ``evolution``  spectral and finite-difference heat flow on the ball
* ``kelvin``     inversion to the exterior domain, hidden surface energy
* ``wholespace`` Bessel-weighted transformation on R^N
* ``approx``     cutoff density experiments, dimension reduction
"""

from . import approx, evolution, hardy, kelvin, profiles, quadrature, spectrum, specfun, wholespace
from .profiles import Dimension, RadialProfile, make_e1, make_mode, make_named, make_subcritical
from .quadrature import integrate, integrate_to_limit
from .specfun import bessel_j, bessel_zero

__all__ = [
    "approx", "evolution", "hardy", "kelvin", "profiles", "quadrature",
    "spectrum", "specfun", "wholespace",
    "Dimension", "RadialProfile", "make_e1", "make_mode", "make_named",
    "make_subcritical", "integrate", "integrate_to_limit",
    "bessel_j", "bessel_zero",
]

__version__ = "0.1.0"
