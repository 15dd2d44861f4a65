"""Independent oracles for the test suite.

Everything here is deliberately primitive and self-contained (no imports
from the package under test): a plain power series for J_0, bisection,
composite Simpson, central differences, the scalar adaptive Gauss-Kronrod
loop that evaluates an integrand one node at a time, and a theta-scheme loop
that solves the banded system afresh at every time step.  Expected values
frozen into the tests were produced by these routines.
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


#: QUADPACK qk21 (Piessens et al. 1983): the positive Kronrod abscissae,
#: their K21 weights, the centre weight, and the G10 weights of the Gauss
#: abscissae (the second, fourth, ... of the list)
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208745433924, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WGK_CENTER = 0.149445554002916905664936468389821
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)

#: (node, Kronrod weight, Gauss weight) on [-1, 1]
GK21_RULE = [(0.0, _WGK_CENTER, 0.0)] + [
    (s * x, wk, _WG[i // 2] if i % 2 else 0.0)
    for i, (x, wk) in enumerate(zip(_XGK, _WGK)) for s in (-1.0, 1.0)]


def _panel(f, a: float, b: float):
    """(K21 value, |K21 - G10|) for one panel, one node at a time."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    kronrod = gauss = 0.0
    for xi, wk, wg in GK21_RULE:
        fx = f(mid + half * xi)
        kronrod += wk * fx
        gauss += wg * fx
    kronrod *= half
    return kronrod, abs(kronrod - half * gauss)


def scalar_gk21(f, a: float, b: float, singular_end: str = "none",
                abs_tol: float = 1e-10, rel_tol: float = 1e-10):
    """(value, points, initial panels) of the adaptive Gauss-Kronrod
    quadrature with scalar calls of f.

    The same algorithm as the library's: initial panels graded by halving
    toward a singular end e, log2(max(width/|e|, 4)) + 10 levels for e != 0
    and 52 for e = 0, capped at the float resolution at e; |K21 - G10| as
    the error estimate, no refinement when the initial panels already meet
    the tolerance, the worst panel bisected first, no split of a panel at
    most 2^8 float spacings of its larger end wide, and at most 6,000 panels.
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
        if endpoint == 0.0:
            levels = 52
        else:
            levels = int(math.log2(max(width / abs(endpoint), 4.0))) + 10
        offsets = [width * 0.5**j for j in range(1, max(min(levels, cap), 1) + 1)]
        if singular_end == "left":
            edges = [a] + [a + w for w in reversed(offsets)] + [b]
        else:
            edges = [a] + [b - w for w in offsets] + [b]
    heap, counter, total = [], 0, 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _panel(g, lo, hi)
        total += val
        heapq.heappush(heap, (-err, counter, lo, hi, val))
        counter += 1
    err_total = sum(-item[0] for item in heap)
    if err_total <= max(abs_tol, rel_tol * abs(total)):
        return total, points, len(edges) - 1
    splits = 0
    while heap:
        tol = max(abs_tol, rel_tol * abs(total))
        if err_total <= tol or not (math.isfinite(total) and math.isfinite(err_total)):
            break
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        narrow = hi - lo <= 2.0**8 * math.ulp(max(abs(lo), abs(hi)))
        if counter >= 6_000 or narrow:
            break
        v1, e1 = _panel(g, lo, mid)
        v2, e2 = _panel(g, mid, hi)
        total += v1 + v2 - val
        err_total += e1 + e2 + neg_err
        heapq.heappush(heap, (-e1, counter, lo, mid, v1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2))
        counter += 1
        splits += 1
        if splits % 512 == 0:
            err_total = sum(-item[0] for item in heap)
    return total, points, len(edges) - 1


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
