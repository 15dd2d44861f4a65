"""Singular heat flow on the unit ball, solved two independent ways.

In the regular part the critical equation is the 2-d radial heat equation
v_t = v'' + v'/r with Dirichlet data at r = 1 and the axis regularity
condition v'(0) = 0.  The spectral solver decays mode coefficients exactly
(c_k(t) = c_k(0) exp(-mu_k t)); the finite-difference solver discretizes the
same equation with a theta scheme and an even-reflection ghost node at the
axis, and solves it in its r-weighted symmetric form (see ``FDRun``).

The exterior flow is solved by pulling back through the Kelvin map, evolving
on the ball, and pushing forward.  By Delta(K u) = |y|^-4 K(Delta u) the
equation it solves outside the ball is |y|^-4 w_t = Delta w + c* w/|y|^2,
not the unweighted heat equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .kelvin import kelvin_map
from .profiles import RadialProfile
from .spectrum import SpectralField, expand

__all__ = ["FDGrid", "evolve_spectral", "time_index", "FDRun", "EnergySample",
           "energy_trace", "evolve_exterior"]


@dataclass(frozen=True)
class FDGrid:
    """Uniform radial grid r_j = j h, h = 1/(m+1), with m interior nodes."""

    m: int
    dt: float
    theta: float = 0.5

    def __post_init__(self) -> None:
        if not isinstance(self.m, (int, np.integer)):
            raise ValueError(f"node count must be a whole number, got {self.m!r}")
        if self.m < 64:
            raise ValueError(f"need at least 64 interior nodes, got {self.m}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if self.theta not in (0.5, 1.0):
            raise ValueError("theta must be 1/2 (trapezoidal) or 1 (implicit)")

    @property
    def h(self) -> float:
        return 1.0 / (self.m + 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.m + 2) * self.h


def evolve_spectral(f: SpectralField, t: float) -> SpectralField:
    """Decay every coefficient by exp(-mu_k t); exact semigroup."""
    if not t >= 0.0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    factors = np.array([math.exp(-m.eigenvalue * t) for m in f.modes])
    return SpectralField(f.modes, f.coeffs * factors)


def time_index(t: float, dt: float) -> int:
    """The index of t on the time grid k dt, refusing a t that is not finite
    or more than 1e-9 (relative, once above 1) off the grid."""
    if not math.isfinite(t):
        raise ValueError(f"t={t} is not a finite time")
    idx = int(round(t / dt))
    if abs(idx * dt - t) > 1e-9 * max(t, 1.0):
        raise ValueError(f"t={t} is not a multiple of dt={dt}")
    return idx


class FDRun:
    """theta-scheme run that computes its states on demand.

    The operator A (v'' + v'/r on v_0..v_m, v_{m+1} = 0, the axis row from
    the even reflection v_{-1} = v_1) is self-adjoint in L^2(r dr), and so is
    its discrete form: with the cell masses W = diag(h/8, r_1, ..., r_m) (the
    integral of r dr over each cell, over h), W A is the symmetric flux form
    whose off-diagonal entries are the midpoint radii r_{j+1/2} / h^2, with
    no flux through the axis.  The diagonal of W (I - theta dt A) exceeds the
    sum of its off-diagonal magnitudes by W, so the matrix is symmetric
    positive definite and the constructor factors it once as L D L^T (LAPACK
    dpttrf).  It is assembled divided by h: the masses are then 1/8, 1, ...,
    m and the flux form is theta dt / h^2 times half-integers, so rounding
    enters the matrix only through that one scalar.  Since
    (I - theta dt A)^-1 (I + (1 - theta) dt A)
        = (1/theta) (I - theta dt A)^-1 - ((1 - theta)/theta) I,
    a step is one solve W (I - theta dt A) y = W v_n (dpttrs) and
    v_{n+1} = y/theta - ((1 - theta)/theta) v_n: 2y - v_n for
    Crank-Nicolson and y for implicit Euler.

    The constructor checks the data and factors the matrix but takes no
    step.  A query steps forward from the newest state to t and holds only
    the last ``HELD`` states (three: ``energy_rate`` reads t + dt, then
    t - dt), the state at time index k in the buffer ``states[k % HELD]``;
    a query older than those starts again from t = 0.  The buffers are
    allocated once and each step writes into the one whose state leaves
    the window.  One loop in ``_held`` takes every step: it binds the
    buffers' interior views, the factors, the right-side weight and the
    solver once per query, and each step is then a product into the buffer,
    the solve in place and, for Crank-Nicolson, a subtraction in place.
    ``energy`` is the norm of W, in which the scheme keeps its energy law
    exactly (``law_defect``); the energy reads write into scratch arrays, so
    neither stepping nor an energy read allocates an array of the grid's
    size.  ``state(t)`` returns a copy, which later steps leave alone.  Each
    state comes from the same arithmetic on the same previous state, so a
    state is bitwise the same whatever the order of the queries.  Query
    times must lie on the time grid, within the rule the constructor
    applies to ``t_final``.
    """

    HELD = 3

    def __init__(self, p: RadialProfile, grid: FDGrid, t_final: float):
        self.profile = p
        self.grid = grid
        steps = time_index(t_final, grid.dt)
        if steps < 1:
            raise ValueError("t_final must be a positive multiple of dt")
        self.steps = steps

        r = grid.nodes
        self._midpoints = 0.5 * (r[:-1] + r[1:])
        state = np.array(p.v(r), dtype=float)
        state[-1] = 0.0
        # the matrix is finite and the scheme linear and stable, so finite
        # initial data keep every later state finite
        if not np.all(np.isfinite(state)):
            raise ValueError(f"initial data of {p.name!r} are not finite on the grid")

        # divided by h: W/h = diag(1/8, 1, ..., m), and -h W A has 2j on its
        # diagonal (1/2 at the axis) and -(j + 1/2) beside it
        j = np.arange(grid.m + 1, dtype=float)
        mass = j.copy()
        mass[0] = 0.125
        stiffness = 2.0 * j
        stiffness[0] = 0.5
        th = grid.theta
        s = th * grid.dt / grid.h**2
        *factors, info = lapack.dpttrf(mass + s * stiffness, -s * (j[:-1] + 0.5))
        if info != 0:
            raise ValueError(f"theta-scheme matrix is not positive definite (dpttrf info={info})")
        self._factors = factors
        self._mass = grid.h * mass  # W itself: h/8, then h j = r_j to the bit
        # the right side carries 1/theta (1 or 2, an exact scaling), so the
        # solve returns y/theta
        self._rhs_weight = mass / th
        # so v_{n+1} is that result less v_n for Crank-Nicolson, where
        # (1 - theta)/theta = 1, and that result itself for implicit Euler
        self._crank_nicolson = th == 0.5
        self._initial = state
        self.states = [np.zeros(state.size) for _ in range(self.HELD)]
        # the stepped entries; the boundary entry is never written and stays 0
        self._interiors = [buf[:-1] for buf in self.states]
        # scratch of the energy reads
        self._cell_sq = np.empty(state.size - 1)
        self._slope_sq = np.empty(state.size - 1)
        self._mean = np.empty(state.size)
        self._restart()

    def _restart(self) -> None:
        np.copyto(self.states[0], self._initial)
        self._newest = 0  # time index of the newest held state

    def _index(self, t: float) -> int:
        idx = time_index(t, self.grid.dt)
        if not 0 <= idx <= self.steps:
            raise ValueError(f"t={t} outside the computed range")
        return idx

    def _held(self, t: float) -> np.ndarray:
        """The held buffer of the state at t, which later steps overwrite."""
        idx = self._index(t)
        window = self.HELD
        if self._newest - idx >= window:
            self._restart()
        k = self._newest
        if k < idx:
            # the one place a state is computed: each step writes its state
            # into the buffer of the state that leaves the window
            interiors = self._interiors
            d, e = self._factors
            w = self._rhs_weight
            dpttrs = lapack.dpttrs
            crank_nicolson = self._crank_nicolson
            u = interiors[k % window]
            while k < idx:
                k += 1
                y = interiors[k % window]
                np.multiply(w, u, y)
                # solves in place (overwrite_b), so y/theta lands in the buffer
                info = dpttrs(d, e, y, 1)[1]
                if info != 0:
                    self._restart()  # the window lost a state
                    raise ValueError(f"theta-scheme solve failed (dpttrs info={info})")
                if crank_nicolson:
                    np.subtract(y, u, y)
                u = y
            self._newest = k
        return self.states[idx % window]

    def state(self, t: float) -> np.ndarray:
        """The grid samples at t, in a fresh array."""
        return self._held(t).copy()

    def norm_sq(self, v: np.ndarray) -> float:
        """s_N h sum_j W_j v_j^2 over the grid samples v_0..v_m of v."""
        sq = self._cell_sq
        np.multiply(v[:-1], v[:-1], sq)
        np.multiply(sq, self._mass, sq)
        return self.profile.dim.surface_factor * self.grid.h * float(np.sum(sq))

    def energy(self, t: float) -> float:
        """Weighted L^2 norm^2 in the cell masses W the scheme factors."""
        return self.norm_sq(self._held(t))

    def dirichlet(self, t: float) -> float:
        """Weighted Dirichlet energy with midpoint radii."""
        return self._dirichlet(self._held(t))

    def _dirichlet(self, v: np.ndarray) -> float:
        h = self.grid.h
        sq = self._slope_sq
        # np.diff(v) / h, squared, times the midpoint radii
        np.subtract(v[1:], v[:-1], sq)
        np.divide(sq, h, sq)
        np.multiply(sq, sq, sq)
        np.multiply(sq, self._midpoints, sq)
        return self.profile.dim.surface_factor * h * float(np.sum(sq))

    def energy_rate(self, t: float) -> float:
        idx = self._index(t)
        dt = self.grid.dt
        if 0 < idx < self.steps:
            return (self.energy((idx + 1) * dt) - self.energy((idx - 1) * dt)) / (2 * dt)
        if idx == 0:
            return (self.energy(dt) - self.energy(0.0)) / dt
        return (self.energy(idx * dt) - self.energy((idx - 1) * dt)) / dt

    def law_defect(self, t: float) -> float:
        """Relative defect of E(t) - E(t - dt) = -2 dt B(v_theta, vbar), which the
        scheme keeps exactly: vbar is the mean of the two states, B the form of
        ``dirichlet``, B(v_theta, vbar) = D(vbar) + (theta - 1/2)(D(t) - D(t - dt))/2."""
        # the earlier state first: the later one is then at most one step on
        v0 = self._held((self._index(t) - 1) * self.grid.dt)
        v1 = self._held(t)
        vbar = np.multiply(np.add(v0, v1, out=self._mean), 0.5, out=self._mean)
        split = (self.grid.theta - 0.5) * (self._dirichlet(v1) - self._dirichlet(v0)) / 2.0
        rhs = -2.0 * self.grid.dt * (self._dirichlet(vbar) + split)
        gap = abs(self.norm_sq(v1) - self.norm_sq(v0) - rhs)
        return gap / abs(rhs) if rhs != 0.0 else math.inf


@dataclass
class EnergySample:
    t: float
    energy: float
    dEdt_est: float
    minus_twice_dirichlet: float


def energy_trace(run, times) -> list[EnergySample]:
    """E(t), its finite-difference rate, and -2x the Dirichlet energy; the
    two last columns agreeing is the energy law of the flow."""
    rows = []
    for t in times:
        rows.append(EnergySample(
            t=float(t),
            energy=run.energy(t),
            dEdt_est=run.energy_rate(t),
            minus_twice_dirichlet=-2.0 * run.dirichlet(t),
        ))
    return rows


def evolve_exterior(w0: RadialProfile, t: float, modes: int = 40) -> RadialProfile:
    """Exterior flow via pullback -> ball evolution -> pushforward.

    The pullback is expanded in radial modes, which decay exactly.  The
    Kelvin map is an involution, so it does both the pullback and the
    pushforward, and since Delta(K u) = |y|^-4 K(Delta u) the flow this
    computes on the exterior of the ball is the weighted one

        |y|^-4 w_t = Delta w + c* w / |y|^2,

    whose regular part obeys omega_t = s^4 (omega'' + omega'/s).
    """
    field = expand(kelvin_map(w0), modes)
    return kelvin_map(evolve_spectral(field, t).profile())
