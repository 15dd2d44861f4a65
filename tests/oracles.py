"""Independent oracles for the test suite.

Everything here is deliberately primitive and self-contained: a plain
power series for J_0, bisection, composite Simpson, central differences,
the scalar adaptive Gauss-Kronrod loop that evaluates an integrand one node
at a time, a quadrature Rayleigh quotient for the subcritical eigenvalue,
and theta-scheme loops that solve the banded system afresh at every time
step (in the general and in the r-weighted symmetric form) or in long
double, node by node.  Expected values frozen into the tests were produced
by these routines.

The package under test is imported for the sequence classifier that
``classify_origin`` maps onto origin classes, for the profile type that
``profile_from_u`` builds, and for the quadrature and Bessel routines of
``factor_energies``, whose second route is the integrand (the Bessel factor
form), not the quadrature.
"""

import heapq
import math
from dataclasses import replace

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_banded, solveh_banded

from hardylab.hardy import weighted_dirichlet
from hardylab.profiles import RadialProfile
from hardylab.quadrature import (DEEP_EPS_SEQUENCE, LimitResult, classify_sequence,
                                 integrate, integrate_to_limit)
from hardylab.specfun import bessel_j
from hardylab.wholespace import bessel_zeros_upto


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


def scalar_gk21(f, a: float, b: float, abs_tol: float = 1e-10, rel_tol: float = 1e-10):
    """(value, points, initial panels) of the adaptive Gauss-Kronrod
    quadrature with scalar calls of f.

    The same algorithm as the library's.  When a = 0 or b >= 16 a > 0 the
    panels live in the log variable v on (0, span), with
    x = a + (b - a) expm1(v) / expm1(span), span = 52 ln 2 for a = 0 and
    ln(b / a) otherwise, and the initial pieces in v are 1, 2, 4, ... wide
    from span while the rest keeps at least half the next width, then the
    rest down to 0; on any other interval there is one initial panel in x.
    |K21 - G10| is the error estimate, there is no refinement when the
    initial panels already meet the tolerance, the worst panel is bisected
    first, a panel at most 8 / (1 - x_1) float spacings of its larger end
    wide (x_1 the outer Kronrod abscissa), in v or once mapped to x, is not
    split, and at most 6,000 panels are made.
    """
    points = 0

    def g(x):
        nonlocal points
        points += 1
        return float(f(x))

    if a == 0.0 or (0.0 < a and b >= 16.0 * a):
        span = 52.0 * math.log(2.0) if a == 0.0 else math.log(b) - math.log(a)
        scale = (b - a) / math.expm1(span)

        def to_x(v):
            return a + scale * math.expm1(v)

        def h(v):
            return g(to_x(v)) * (scale * math.exp(v))

        edges, width = [span], 1.0
        while edges[-1] >= 1.5 * width:
            edges.append(edges[-1] - width)
            width *= 2.0
        edges = [0.0] + edges[::-1]
    else:
        to_x, h, edges = (lambda x: x), g, [a, b]

    def narrow(lo, hi):
        return hi - lo <= 8.0 / (1.0 - _XGK[0]) * math.ulp(max(abs(lo), abs(hi)))

    heap, counter, total = [], 0, 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _panel(h, lo, hi)
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
        if counter >= 6_000 or narrow(lo, hi) or narrow(to_x(lo), to_x(hi)):
            break
        v1, e1 = _panel(h, lo, mid)
        v2, e2 = _panel(h, mid, hi)
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


def subcritical_rayleigh_quadrature(p, m: float, floor: float = 1e-14) -> float:
    r"""Quadrature route to the subcritical eigenvalue z^2 of the profile
    p = r^{-lam} J_m(z r), a cross-check of the zero finder.

    In the regular part v = J_m(z r) the subcritical energy reduces to

        \int_0^1 (v'^2 r + m^2 v^2 / r) dr   over   \int_0^1 v^2 r dr.

    Both numerator terms behave like r^{2m-1} near 0; the integral is cut at
    ``floor``, which truncates a head of relative size O(floor^{2m}).
    """
    def num_f(r):
        over = p.v(r) / math.sqrt(r)
        return (p.dv(r) * math.sqrt(r)) ** 2 + m * m * over * over

    num = scalar_gk21(num_f, floor, 1.0)[0]
    den = scalar_gk21(lambda r: (p.v(r) * math.sqrt(r)) ** 2, floor, 1.0)[0]
    return num / den


def scaled(p: RadialProfile, alpha: float) -> RadialProfile:
    """alpha times p: the same origin class and support, and the same
    flat_below, since alpha dv vanishes where dv does."""
    v, dv = p.v, p.dv
    return replace(p, v=lambda r: alpha * v(r), dv=lambda r: alpha * dv(r),
                   name=f"{alpha:g}*{p.name}" if p.name else "")


def dirichlet_limit(p: RadialProfile) -> LimitResult:
    """lim_{eps->0} of the weighted Dirichlet energy D(eps, R) on
    DEEP_EPS_SEQUENCE (the radii below the outer end R of the support), as a
    running sum of ``weighted_dirichlet`` slices.

    A second route to ``cutoff_norm`` and ``exterior_norm``, whose samples
    are the same energy reached through the Hardy functional and the
    singularity energy: the same verdict and, where that is ``converged``,
    the same limit.
    """
    R = p.support[1]
    total, upper = 0.0, R

    def F(eps):
        nonlocal total, upper
        total, upper = total + weighted_dirichlet(p, eps, upper), eps
        return total

    return integrate_to_limit(F, [e for e in DEEP_EPS_SEQUENCE if e < R])


def oscillating_tail(a: float) -> float:
    """int_1^inf a^2 s^(2a-2) cos^2(s^a) ds, the pure law's share of D(0, 1)
    below r = 1/e for sin(s^a), 0 < a < 1/2.  With x = s^a it is
    (a/2) [1/(1/a - 2) + int_1^inf x^(1-1/a) cos 2x dx], whose oscillatory
    integral is QUADPACK's Fourier integral QAWF."""
    cos_part = quad(lambda x: x ** (1.0 - 1.0 / a), 1.0, np.inf, weight="cos", wvar=2.0)[0]
    return 0.5 * a * (1.0 / (1.0 / a - 2.0) + cos_part)


def log_family_law(p: RadialProfile, a: float) -> float:
    """D(0, 1) of the unfrozen law of the log-family profile p with parameter
    a: s_N times the cubic bridge's int_{1/e}^1 dv^2 r dr plus the pure law's
    share below 1/e, a^2 / (1 - 2a) for s^a and ``oscillating_tail`` for
    sin(s^a); inf for a >= 1/2, where the family leaves the space.

    A second route to ``cutoff_norm`` and ``exterior_norm`` of the family that
    takes no eps-limit, so it does not share the sequence classifier.
    """
    if a >= 0.5:
        return math.inf
    bridge = quad(lambda r: p.dv(r) ** 2 * r, math.exp(-1.0), 1.0,
                  epsabs=1e-14, epsrel=1e-13)[0]
    tail = oscillating_tail(a) if p.origin_class == "oscillating" else a * a / (1.0 - 2.0 * a)
    return p.dim.surface_factor * (bridge + tail)


def u_and_du(p: RadialProfile):
    """(u, u') of the function that p stands for, rebuilt from its regular
    part: u = r^-lam v and u' = r^-lam (v' - lam v / r).  The package never
    forms them; the tests check the Kelvin map and the exterior flow in u
    through this route, the inverse of ``profile_from_u``."""
    lam = p.dim.singular_exponent

    def u(r):
        return r ** -lam * p.v(r)

    def du(r):
        return r ** -lam * (p.dv(r) - lam * p.v(r) / r)

    return u, du


def profile_from_u(dim, u, du, support) -> RadialProfile:
    """The profile of the function u itself: v = r^lam u and
    dv = r^lam (du + lam u / r), origin class ``vanishing``."""
    lam = dim.singular_exponent

    def v(r):
        return r**lam * u(r)

    def dv(r):
        return r**lam * (du(r) + lam * u(r) / r)

    return RadialProfile(dim=dim, v=v, dv=dv, support=tuple(support),
                         origin_class="vanishing")


def factor_energies(b) -> tuple[float, float]:
    r"""(gradient, mass) of the function r^-lam J_0 b.v in the Bessel
    factor form, s_N \int (J_0 b')^2 r dr and s_N \int (J_0 b)^2 r dr.

    The support is cut at the zeros of J_0 inside it, and each piece is
    integrated in one call: the same pieces as ``wholespace.j_functional``.
    The mass integrand is the same product, so the mass is that of
    ``j_functional(bessel_weighted(b))`` to the last bit; the gradient
    integrand differs by the identity J_0 (v/J_0)' = v' + (J_1/J_0) v.
    """
    lo, hi = b.support
    pts = [lo] + [z for z in bessel_zeros_upto(hi) if lo < z < hi] + [hi]

    def grad(r):
        return (bessel_j(0.0, r) * b.dv(r)) ** 2 * r

    def mass(r):
        return (bessel_j(0.0, r) * b.v(r)) ** 2 * r

    out = []
    for f in (grad, mass):
        total = 0.0
        for a, c in zip(pts[:-1], pts[1:]):
            total += integrate(f, a, c).value_or_raise()
        out.append(b.dim.surface_factor * total)
    return out[0], out[1]


#: radii 10^-g used by ``classify_origin``; geometric in the exponent so that
#: slow (powers of log) growth and oscillation are actually visible
CLASSIFY_EXPONENTS = (2, 4, 8, 16, 32, 64, 128, 250)


def classify_origin(p) -> str:
    """Empirical origin class from samples of v on r = 10^-g, g geometric.

    Maps the sequence classifier onto the four origin classes: a convergent
    sample sequence is ``vanishing`` or ``finite_limit`` depending on the
    limit, monotone non-contracting growth is ``log_divergent``, and bounded
    non-convergent behavior is ``oscillating``.
    """
    vals = p.v(np.array([10.0**-g for g in CLASSIFY_EXPONENTS]))
    cls, limit = classify_sequence(vals)
    if cls == "converged":
        scale = max(max(abs(x) for x in vals), 1e-300)
        return "vanishing" if abs(limit) <= 1e-6 * max(scale, 1.0) else "finite_limit"
    if cls == "diverging":
        return "log_divergent"
    return "oscillating"


def theta_operator(grid, dtype=float):
    """(lower, main, upper) of v'' + v'/r on v_0..v_m (v_{m+1} = 0) in the
    general form: rows 1..m carry (1 -+ 1/(2j))/h^2 beside -2/h^2, and the
    even reflection v_{-1} = v_1 makes row 0 4 (v_1 - v_0)/h^2.  ``lower``
    holds the entries of rows 1..m, ``upper`` those of rows 0..m-1."""
    m = grid.m
    h = dtype(grid.h)
    j = np.arange(1, m + 1).astype(dtype)
    main = np.full(m + 1, -2.0 / h**2, dtype=dtype)
    main[0] = -4.0 / h**2
    upper = np.empty(m, dtype=dtype)
    upper[0] = 4.0 / h**2
    upper[1:] = (1.0 + 0.5 / j[:-1]) / h**2
    lower = (1.0 - 0.5 / j) / h**2
    return lower, main, upper


def _initial_state(p, grid) -> np.ndarray:
    state = np.array(p.v(np.arange(grid.m + 2) * grid.h), dtype=float)
    state[-1] = 0.0
    return state


def theta_scheme_banded(p, grid, t_final: float) -> np.ndarray:
    """Every state of the radial theta scheme in the general form, one
    ``solve_banded`` per step.

    (I - theta dt A) v_{n+1} = (I + (1 - theta) dt A) v_n with A from
    ``theta_operator``, the explicit product formed and a fresh banded LU at
    each step.  Returns an array of shape (steps + 1, m + 2).
    """
    m, th, dt = grid.m, grid.theta, grid.dt
    steps = int(round(t_final / dt))
    lower, main, upper = theta_operator(grid)
    ab = np.zeros((3, m + 1))
    ab[0, 1:] = -th * dt * upper
    ab[1, :] = 1.0 - th * dt * main
    ab[2, :-1] = -th * dt * lower

    states = [_initial_state(p, grid)]
    u = states[0][: m + 1].copy()
    for _ in range(steps):
        av = main * u
        av[:-1] += upper * u[1:]
        av[1:] += lower * u[:-1]
        u = solve_banded((1, 1), ab, u + (1.0 - th) * dt * av)
        full = np.zeros(m + 2)
        full[: m + 1] = u
        states.append(full)
    return np.array(states)


def theta_scheme_symmetric(p, grid, t_final: float) -> np.ndarray:
    """Every state of the radial theta scheme in the r-weighted symmetric
    form, one ``solveh_banded`` per step.

    With the cell masses w_j = r_j (h/8 at the axis), W A is the flux form
    (r_{j+1/2} (v_{j+1} - v_j) - r_{j-1/2} (v_j - v_{j-1})) / h^2 with no
    flux through the axis.  Each step solves W (I - theta dt A) y = W v_n,
    divided by h so that the masses are j (1/8 at the axis) and the flux
    weights j + 1/2, afresh (LAPACK ptsv on the two-row band), and sets
    v_{n+1} = y/theta - (1 - theta)/theta v_n.  Returns an array of shape
    (steps + 1, m + 2).
    """
    m, th, dt = grid.m, grid.theta, grid.dt
    steps = int(round(t_final / dt))
    s = th * dt / grid.h**2
    w = np.array([0.125] + [float(k) for k in range(1, m + 1)])
    f = np.array([k + 0.5 for k in range(m + 1)])  # flux weight between k and k+1
    ab = np.zeros((2, m + 1))  # upper form: superdiagonal, then diagonal
    ab[0, 1:] = -s * f[:-1]
    ab[1, :] = w + s * (f + np.append(0.0, f[:-1]))

    states = [_initial_state(p, grid)]
    for _ in range(steps):
        u = states[-1][: m + 1]
        y = solveh_banded(ab, w * u)
        full = np.zeros(m + 2)
        full[: m + 1] = y / th - (1.0 - th) / th * u
        states.append(full)
    return np.array(states)


def theta_scheme_longdouble(p, grid, t_final: float) -> np.ndarray:
    """Every state of the general-form theta scheme in ``np.longdouble``,
    solved by the Thomas algorithm one node at a time.

    The same discrete problem as ``theta_scheme_banded`` (float64 h and
    initial samples), with every operation carried in the platform's long
    double.  Returns a long-double array of shape (steps + 1, m + 2).
    """
    ld = np.longdouble
    m, th, dt = grid.m, ld(grid.theta), ld(grid.dt)
    steps = int(round(t_final / grid.dt))
    lower, main, upper = theta_operator(grid, ld)
    a = -th * dt * lower  # row j's coefficient of x_{j-1}, rows 1..m
    b = 1 - th * dt * main
    c = -th * dt * upper
    # elimination without pivoting (the matrix is diagonally dominant)
    cp = np.empty(m, dtype=ld)
    inv = np.empty(m + 1, dtype=ld)
    inv[0] = 1 / b[0]
    cp[0] = c[0] * inv[0]
    for j in range(1, m + 1):
        inv[j] = 1 / (b[j] - a[j - 1] * cp[j - 1])
        if j < m:
            cp[j] = c[j] * inv[j]

    states = [_initial_state(p, grid).astype(ld)]
    for _ in range(steps):
        u = states[-1][: m + 1]
        av = main * u
        av[:-1] += upper * u[1:]
        av[1:] += lower * u[:-1]
        d = u + (1 - th) * dt * av
        x = np.zeros(m + 2, dtype=ld)
        x[0] = d[0] * inv[0]
        for j in range(1, m + 1):
            x[j] = (d[j] - a[j - 1] * x[j - 1]) * inv[j]
        for j in range(m - 1, -1, -1):
            x[j] -= cp[j] * x[j + 1]
        states.append(x)
    return np.array(states)
