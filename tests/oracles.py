"""Independent oracles for the test suite.

Everything here is deliberately primitive and self-contained (no imports
from the package under test): a plain power series for J_0, bisection,
composite Simpson, central differences, the scalar adaptive GL15 loop that
evaluates an integrand one node at a time, and a theta-scheme loop that
solves the banded system afresh at every time step.  Expected values frozen
into the tests were produced by these routines.
"""

import heapq
import math

import numpy as np
from scipy.linalg import solve_banded


def j0_series(x: float, terms: int = 80) -> float:
    """J_0 by its ascending series; adequate for |x| <= 10."""
    total = 1.0
    term = 1.0
    for k in range(1, terms):
        term *= -(x * x) / (4.0 * k * k)
        total += term
        if abs(term) < 1e-20 * abs(total):
            break
    return total


def bisect(f, lo: float, hi: float, tol: float = 1e-13) -> float:
    flo = f(lo)
    if flo * f(hi) > 0.0:
        raise ValueError("no sign change in bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # interval narrower than machine spacing
            break
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


def simpson(f, a: float, b: float, n: int = 4096) -> float:
    """Composite Simpson rule with n (even) subintervals."""
    if n % 2:
        n += 1
    h = (b - a) / n
    total = f(a) + f(b)
    for i in range(1, n):
        total += f(a + i * h) * (4.0 if i % 2 else 2.0)
    return total * h / 3.0


def central_diff(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


#: first zero of J_0 from bisect(j0_series, 2, 3, 1e-15)
Z01 = 2.404825557695773
#: second and third zeros, same route on [5, 6] and [8, 9]
Z02 = 5.520078110286311
Z03 = 8.653727912911013
#: first zero of J_1 (bisection on the series for J_1)
Z11 = 3.8317059702075125


_GL_PAIRS = [(float(x), float(w)) for x, w in zip(*np.polynomial.legendre.leggauss(15))]


def _gl15(f, a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = 0.0
    for xi, wi in _GL_PAIRS:
        total += wi * f(mid + half * xi)
    return half * total


def _panel(f, a: float, b: float):
    """(refined value, error estimate) for one panel."""
    coarse = _gl15(f, a, b)
    mid = 0.5 * (a + b)
    fine = _gl15(f, a, mid) + _gl15(f, mid, b)
    return fine, abs(fine - coarse)


def scalar_gl15(f, a: float, b: float, singular_end: str = "none",
                endpoint_grading: int = 52, max_depth: int = 48,
                abs_tol: float = 1e-10, rel_tol: float = 1e-10):
    """(value, points) of the adaptive GL15 quadrature with scalar calls of f.

    The same algorithm as the library's: initial panels graded by halving
    toward a singular end, whole-panel rule against the sum of halves as the
    error estimate, and the worst panel bisected first.
    """
    points = 0

    def g(x):
        nonlocal points
        points += 1
        return float(f(x))

    width = b - a
    if singular_end == "none":
        edges = [a, b]
    else:
        endpoint = a if singular_end == "left" else b
        ulp = max(abs(endpoint) * 2.3e-16, 5e-324)
        cap = int(math.log2(width) - math.log2(ulp)) - 8 if width > ulp else 1
        offsets = [width * 0.5**j for j in range(1, min(endpoint_grading, max(cap, 1)) + 1)]
        if singular_end == "left":
            edges = [a] + [a + w for w in reversed(offsets)] + [b]
        else:
            edges = [a] + [b - w for w in offsets] + [b]
    heap, counter, total = [], 0, 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _panel(g, lo, hi)
        total += val
        heapq.heappush(heap, (-err, counter, lo, hi, val, 0))
        counter += 1
    max_panels = max(6_000, 4 * len(edges))
    err_total = sum(-item[0] for item in heap)
    splits = 0
    while heap:
        tol = max(abs_tol, rel_tol * abs(total))
        if err_total <= tol or not (math.isfinite(total) and math.isfinite(err_total)):
            break
        neg_err, _, lo, hi, val, depth = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if depth >= max_depth or counter >= max_panels or not lo < mid < hi:
            break
        v1, e1 = _panel(g, lo, mid)
        v2, e2 = _panel(g, mid, hi)
        total += v1 + v2 - val
        err_total += e1 + e2 + neg_err
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, depth + 1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, depth + 1))
        counter += 1
        splits += 1
        if splits % 512 == 0:
            err_total = sum(-item[0] for item in heap)
    return total, points


def theta_scheme_banded(p, grid, t_final: float) -> np.ndarray:
    """Every state of the radial theta scheme, one ``solve_banded`` per step.

    The same discretization as the library's finite-difference run (v'' + v'/r
    on v_0..v_m, even reflection at the axis, v_{m+1} = 0), assembled here
    from scratch and solved with a fresh banded LU at each step.  Returns an
    array of shape (steps + 1, m + 2).
    """
    m, h, th, dt = grid.m, grid.h, grid.theta, grid.dt
    steps = int(round(t_final / dt))
    j = np.arange(1, m + 1, dtype=float)
    main = np.full(m + 1, -2.0 / h**2)
    main[0] = -4.0 / h**2
    upper = np.empty(m + 1)
    upper[0] = 4.0 / h**2
    upper[1:] = (1.0 + 0.5 / j) / h**2
    lower = (1.0 - 0.5 / j) / h**2
    ab = np.zeros((3, m + 1))
    ab[0, 1:] = -th * dt * upper[:-1]
    ab[1, :] = 1.0 - th * dt * main
    ab[2, :-1] = -th * dt * lower

    state = np.array(p.v(np.arange(m + 2) * h), dtype=float)
    state[-1] = 0.0
    states = [state.copy()]
    u = state[: m + 1].copy()
    for _ in range(steps):
        av = main * u
        av[:-1] += upper[:-1] * u[1:]
        av[1:] += lower * u[:-1]
        u = solve_banded((1, 1), ab, u + (1.0 - th) * dt * av)
        full = np.zeros(m + 2)
        full[: m + 1] = u
        states.append(full)
    return np.array(states)
