import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import evolution, kelvin, spectrum
from hardylab.evolution import FDGrid, FDRun, energy_trace, evolve_spectral
from hardylab.profiles import Dimension, make_e1, make_named, named_profile
from hardylab.specfun import bessel_j

from oracles import (Z01, theta_operator, theta_scheme_banded, theta_scheme_longdouble,
                     theta_scheme_symmetric, u_and_du)

MU1 = Z01 * Z01


def field3(dim3):
    modes = [spectrum.eigenmode(dim3, k) for k in (1, 2, 3)]
    return spectrum.SpectralField(modes, np.array([1.0, 0.4, -0.2]))


def test_time_zero_is_identity(dim3):
    f = field3(dim3)
    g = evolve_spectral(f, 0.0)
    assert np.array_equal(f.coeffs, g.coeffs)


def test_single_mode_decay_factor(dim3):
    modes = [spectrum.eigenmode(dim3, 1)]
    f = spectrum.SpectralField(modes, np.array([1.0]))
    g = evolve_spectral(f, 1.0)
    # exp(-z01^2), frozen from the oracle constant
    assert abs(g.coeffs[0] - 0.0030788905345452314) < 1e-15


def test_semigroup_property(dim3):
    f = field3(dim3)
    ab = evolve_spectral(evolve_spectral(f, 0.35), 0.15)
    c = evolve_spectral(f, 0.5)
    assert np.max(np.abs(ab.coeffs - c.coeffs)) < 1e-16


#: Hypothesis settings of the spectral-flow properties: the same examples on
#: every run, and no example database
PROPERTY = settings(max_examples=100, derandomize=True, database=None, deadline=None)
DIMS = st.sampled_from([3, 4])
#: one coefficient at least 1e-3, so that the energies stay far from the
#: subnormal range, where relative errors grow
COEFFS = st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5).filter(
    lambda c: max(map(abs, c)) >= 1e-3)
TIMES = st.floats(0.0, 1.0)


def random_field(n: int, coeffs) -> spectrum.SpectralField:
    """The field with the given coefficients on modes 1-5 in dimension n."""
    modes = [spectrum.eigenmode(Dimension(n), k) for k in range(1, 6)]
    return spectrum.SpectralField(modes, np.array(coeffs))


@PROPERTY
@given(DIMS, COEFFS, TIMES, TIMES)
def test_semigroup_law_on_random_fields(n, coeffs, a, b):
    # measured worst 1.1e-16 over 300 examples
    f = random_field(n, coeffs)
    ab = evolve_spectral(evolve_spectral(f, a), b)
    c = evolve_spectral(f, a + b)
    assert np.max(np.abs(ab.coeffs - c.coeffs)) < 1e-15


@PROPERTY
@given(DIMS, st.floats(0.1, 1.0), st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_long_time_slope(n, c1, rest):
    # by t = 2 the second mode is e^{-2(mu_2 - mu_1) 2} ~ 1e-43 of the first,
    # so only rounding is left: measured worst 3.6e-15 over 300 examples
    f = random_field(n, [c1, *rest])
    e_a = evolve_spectral(f, 2.0).norm_sq()
    e_b = evolve_spectral(f, 2.5).norm_sq()
    slope = (math.log(e_b) - math.log(e_a)) / 0.5 / 2.0
    assert abs(-slope - MU1) < 1e-13


def test_fd_grid_validation():
    with pytest.raises(ValueError):
        FDGrid(m=32, dt=1e-4)
    with pytest.raises(ValueError):
        FDGrid(m=128, dt=-1e-4)
    with pytest.raises(ValueError):
        FDGrid(m=128, dt=1e-4, theta=0.7)
    # an infinite dt used to pass, and FDRun then blamed t_final
    for dt in (math.inf, math.nan):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            FDGrid(m=64, dt=dt)
    # a fractional m puts nodes past r = 1: m = 100.5 reads E = 1.51002 for
    # e1 (N = 3), where the exact value is 1.50844
    for m in (100.5, 128.0, "128"):
        with pytest.raises(ValueError, match=f"node count must be a whole number, got {m!r}"):
            FDGrid(m=m, dt=1e-4)
    assert FDGrid(m=np.int64(128), dt=1e-4).nodes[-1] == 1.0


def test_spectral_flow_refuses_a_time_that_is_not_nonnegative(dim3):
    # nan < 0 is false: a nan time used to pass and decay every coefficient to nan
    for t in (-1e-3, -math.inf, math.nan):
        with pytest.raises(ValueError, match="time must be nonnegative"):
            evolve_spectral(field3(dim3), t)


def test_fd_time_zero_returns_samples(dim3):
    p = make_e1(dim3)
    g = FDGrid(m=128, dt=1e-4)
    v = FDRun(p, g, g.dt).state(0.0)
    r = g.nodes
    want = np.array([p.v(rj) for rj in r])
    want[-1] = 0.0
    assert np.array_equal(v, want)


def test_fd_matches_exact_mode_decay(dim3):
    # spectral decay of the pure ground mode as the oracle
    p = make_e1(dim3)
    g = FDGrid(m=512, dt=1e-4, theta=0.5)
    v = FDRun(p, g, 0.1).state(0.1)
    r = g.nodes
    exact = math.exp(-MU1 * 0.1) * np.array([bessel_j(0.0, Z01 * rj) for rj in r])
    exact[-1] = 0.0
    dist2 = dim3.surface_factor * g.h * float(np.sum((v - exact) ** 2 * r))
    assert math.sqrt(dist2) < 1e-4


def test_fd_matches_spectral_for_bump(dim3):
    p = make_named(dim3, "bump")
    g = FDGrid(m=512, dt=1e-4)
    v = FDRun(p, g, 0.1).state(0.1)
    f = evolve_spectral(spectrum.expand(p, 40), 0.1)
    r = g.nodes
    vs = np.array([f.v(rj) for rj in r])
    dist2 = dim3.surface_factor * g.h * float(np.sum((v - vs) ** 2 * r))
    assert math.sqrt(dist2) < 1e-4


def test_grid_refinement_second_order(dim3):
    # halving h should cut the error against the exact decay by about 4
    p = make_e1(dim3)
    errs = []
    for m in (128, 257):
        g = FDGrid(m=m, dt=2e-5, theta=0.5)
        v = FDRun(p, g, 0.02).state(0.02)
        r = g.nodes
        exact = math.exp(-MU1 * 0.02) * np.array([bessel_j(0.0, Z01 * rj) for rj in r])
        exact[-1] = 0.0
        errs.append(math.sqrt(g.h * float(np.sum((v - exact) ** 2 * r))))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.2


def cell_masses(grid) -> np.ndarray:
    """W = diag(h/8, r_1, ..., r_m): the integral of r dr over each cell,
    over h, on the nodes that the scheme steps."""
    w = grid.nodes[:-1].copy()
    w[0] = grid.h / 8.0
    return w


def max_relative_gap(states, reference) -> float:
    """Largest max-norm gap of a state to its reference, over the reference's
    max norm at the same time."""
    return max(float(np.max(np.abs(v - ref)) / np.max(np.abs(ref)))
               for v, ref in zip(states, reference))


@pytest.mark.parametrize("m", [64, 511, 2048])
def test_weighted_operator_is_symmetric(m):
    # the premise of the symmetric solve: with the cell masses r_j (h/8 at the
    # axis) the general-form operator becomes the flux form, whose entries
    # beside the diagonal are (j + 1/2)/h from either side
    grid = FDGrid(m=m, dt=1e-3)
    lower, _, upper = theta_operator(grid)
    w = cell_masses(grid)
    above, below = w[:-1] * upper, w[1:] * lower
    flux = (np.arange(m) + 0.5) / grid.h
    assert np.max(np.abs(above - below) / above) <= 5e-16
    assert np.max(np.abs(above - flux) / flux) <= 5e-16


@pytest.mark.parametrize("m", [64, 511, 2048])
@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("name", ["e1", "bump", "log_power(0.3)"])
def test_fd_states_equal_banded_oracle(dim3, name, theta, m):
    # the symmetric matrix is factored once; a fresh solveh_banded per step is
    # the second route and gives the same bits.  The general form with its
    # explicit product is a third route, equal up to rounding
    p = named_profile(dim3, name)
    grid = FDGrid(m=m, dt=1e-3, theta=theta)
    run = FDRun(p, grid, 0.02)
    states = np.array([run.state(k * grid.dt) for k in range(run.steps + 1)])
    assert np.array_equal(states, theta_scheme_symmetric(p, grid, 0.02))
    assert max_relative_gap(states, theta_scheme_banded(p, grid, 0.02)) <= 1e-11


@pytest.mark.parametrize("m", [64, 511, 2048])
@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("name", ["e1", "bump", "log_power(0.3)"])
def test_fd_states_near_longdouble_oracle(dim3, name, theta, m):
    # both float64 routes against the same scheme carried in long double; the
    # symmetric form, whose assembly rounds only theta dt / h^2, is the closer
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("long double is no wider than double on this platform")
    p = named_profile(dim3, name)
    grid = FDGrid(m=m, dt=1e-3, theta=theta)
    run = FDRun(p, grid, 0.02)
    states = [run.state(k * grid.dt) for k in range(run.steps + 1)]
    exact = theta_scheme_longdouble(p, grid, 0.02)
    assert max_relative_gap(states, exact) <= 1e-12
    assert max_relative_gap(theta_scheme_banded(p, grid, 0.02), exact) <= 1e-11


def test_fd_states_in_any_query_order(dim3):
    # states are computed on demand and only the newest few are held; a query
    # behind them starts again from t = 0 and must give the same bits
    p = named_profile(dim3, "bump")
    grid = FDGrid(m=128, dt=1e-3)
    oracle = theta_scheme_symmetric(p, grid, 0.04)
    run = FDRun(p, grid, 0.04)
    order = [17, 16, 15, 40, 3, 38, 0, 39, 12, 12, 29, 28, 30, 5, 40, 1, 22, 21, 2]
    order += list(np.random.default_rng(7).permutation(41))
    for k in order:
        assert np.array_equal(run.state(k * grid.dt), oracle[k]), k
        assert len(run.states) <= FDRun.HELD


def test_fd_run_holds_few_states(dim3):
    # the heat_flow benchmark's largest run, whose 2,001 states would take 32 MB
    p = named_profile(dim3, "bump")
    times = [round(0.003 * j, 6) for j in range(1, 34)]
    tracemalloc.start()
    try:
        run = FDRun(p, FDGrid(m=2048, dt=5e-5), 0.1)
        energy_trace(run, times)
        run.state(0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_fd_solve_count(dim3, monkeypatch):
    # the heat_flow benchmark's largest run: forward queries take each step
    # once, and a query behind the held states pays its index again
    solves = []
    dpttrs = evolution.lapack.dpttrs

    def counting(*args, **kwargs):
        solves.append(1)
        return dpttrs(*args, **kwargs)

    monkeypatch.setattr(evolution.lapack, "dpttrs", counting)
    p = named_profile(dim3, "bump")
    run = FDRun(p, FDGrid(m=2048, dt=5e-5), 0.1)
    energy_trace(run, [round(0.003 * j, 6) for j in range(1, 34)])
    run.state(0.1)
    assert len(solves) == run.steps == 2000
    run.state(0.05)
    assert len(solves) == 3000


def test_fd_steps_allocate_no_state(dim3):
    # stepping writes into the held buffers and the energy reads, the mean
    # state of law_defect among them, into the run's scratch arrays.  Each
    # read below has to step first
    grid = FDGrid(m=2048, dt=1e-3)
    run = FDRun(named_profile(dim3, "bump"), grid, 0.05)
    reads = [(run.law_defect, 0.01), (run.energy, 0.02), (run.energy_rate, 0.03),
             (run.dirichlet, 0.04), (run.energy_rate, 0.05)]
    for read, t in reads:
        tracemalloc.start()
        try:
            read(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * grid.m, read.__name__


@pytest.mark.parametrize("name", ["e1", "bump"])
def test_fd_energies_equal_plain_formulas(dim3, name):
    # the energy reads write into scratch arrays with the same operations, in
    # the same order, as the plain formulas on a copy of the state; the
    # energy's weights are the cell masses W = diag(h/8, r_1, ..., r_m)
    grid = FDGrid(m=2048, dt=5e-5)
    run = FDRun(named_profile(dim3, name), grid, 0.02)
    h, r = grid.h, grid.nodes
    midpoints = 0.5 * (r[:-1] + r[1:])
    w = cell_masses(grid)
    sf = dim3.surface_factor
    for t in (0.0, 0.003, 0.01, 0.0101, 0.02, 0.006):
        v = run.state(t)
        dv = np.diff(v) / h
        assert run.energy(t) == sf * h * float(np.sum(v[:-1] * v[:-1] * w)), t
        assert run.dirichlet(t) == sf * h * float(np.sum(dv * dv * midpoints)), t


def test_fd_state_is_a_copy(dim3):
    # the run recycles its held buffers: a returned state must not change as
    # the run steps past it or starts again, nor reach the run when mutated
    p = named_profile(dim3, "bump")
    grid = FDGrid(m=64, dt=1e-3)
    oracle = theta_scheme_symmetric(p, grid, 0.02)
    run = FDRun(p, grid, 0.02)
    v0, v5 = run.state(0.0), run.state(0.005)
    run.state(0.02)
    assert np.array_equal(v5, oracle[5])
    run.state(0.0)
    assert np.array_equal(v0, oracle[0]) and np.array_equal(v5, oracle[5])
    v0[:] = 7.0
    v5[:] = 7.0
    run.state(0.02)
    assert np.array_equal(run.state(0.0), oracle[0])
    assert np.array_equal(run.state(0.005), oracle[5])


def test_fd_rejects_off_grid_times(dim3):
    grid = FDGrid(m=64, dt=1e-4)
    run = FDRun(named_profile(dim3, "bump"), grid, 0.01)
    for t in (0.00015, 0.0050125, 0.010001):
        with pytest.raises(ValueError, match="not a multiple of dt"):
            run.state(t)
    with pytest.raises(ValueError, match="not a multiple of dt"):
        run.energy_rate(0.00015)
    # an infinite or nan time has no index on the time grid
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError, match="not a finite time"):
            run.state(t)
        with pytest.raises(ValueError, match="not a finite time"):
            FDRun(named_profile(dim3, "bump"), grid, t_final=t)
    # times that are multiples of dt up to rounding stay valid
    assert np.array_equal(run.state(0.003 * 3), run.state(90 * grid.dt))


def test_fd_rejects_non_finite_initial_data(dim3):
    p = make_e1(dim3)
    grid = FDGrid(m=64, dt=1e-3)
    bad = grid.nodes[17]

    def v(r, _v=p.v):
        return np.where(np.asarray(r) == bad, np.nan, _v(r))

    with pytest.raises(ValueError):
        FDRun(replace(p, v=v), grid, 0.01)


#: the named member profiles of CI's evolve runs, every origin class among them
EVOLVED_MEMBERS = ["e1", "mode(2)", "bump", "annular_bump", "constant_plateau",
                   "subcritical(0.1)", "oscillating(0.3)", "log_ramp(1e-3)",
                   "log_power(0.3)", "log_power(0.45)", "log_ramp(1e-6)"]


def dirichlet_form(dim, grid, a, b) -> float:
    """B(a, b) = s_N h sum_j r_{j+1/2} (a_{j+1} - a_j)(b_{j+1} - b_j) / h^2, the
    bilinear form of the weighted Dirichlet energy with midpoint radii."""
    r, h = grid.nodes, grid.h
    midpoints = 0.5 * (r[:-1] + r[1:])
    return dim.surface_factor * h * float(np.sum(midpoints * np.diff(a) * np.diff(b))) / h**2


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", EVOLVED_MEMBERS)
def test_discrete_energy_law_on_oracle_states(name, n, theta):
    # pairing W (v_{k+1} - v_k) = dt W A v_theta with v_{k+1} + v_k and summing
    # the flux form by parts gives E_{k+1} - E_k = -2 dt B(v_theta, vbar) to
    # rounding; here on the oracle's states, with W, B and v_theta written out.
    # Measured: defects up to 1.3e-13, and the two routes within 2.1e-15
    dim = Dimension(n)
    p = named_profile(dim, name)
    grid = FDGrid(m=128, dt=1e-3, theta=theta)
    states = theta_scheme_symmetric(p, grid, 0.01)
    w = cell_masses(grid)
    run = FDRun(p, grid, 0.01)
    for k in range(1, len(states)):
        v0, v1 = states[k - 1], states[k]
        e0, e1 = (dim.surface_factor * grid.h * float(np.sum(w * v[:-1] ** 2)) for v in (v0, v1))
        vtheta = theta * v1 + (1.0 - theta) * v0
        rhs = -2.0 * grid.dt * dirichlet_form(dim, grid, vtheta, 0.5 * (v0 + v1))
        defect = abs(e1 - e0 - rhs) / abs(rhs)
        assert defect <= 1e-11, k
        assert abs(run.law_defect(k * grid.dt) - defect) <= 1e-13, k


@PROPERTY
@given(DIMS, st.integers(1, 5), st.floats(1e-3, 10.0), TIMES)
def test_energy_law_single_mode_exact(n, k, c, t):
    # D = mu_k E for a single mode: measured worst 2.5e-16 relative
    mode = spectrum.eigenmode(Dimension(n), k)
    f = evolve_spectral(spectrum.SpectralField([mode], np.array([c])), t)
    e = f.norm_sq()
    assert abs(f.dirichlet_sq() - mode.eigenvalue * e) <= 1e-15 * mode.eigenvalue * e


def test_energy_trace_fd(dim3):
    p = make_e1(dim3)
    run = FDRun(p, FDGrid(m=256, dt=2e-4), 0.04)
    rows = energy_trace(run, [0.01, 0.02, 0.03])
    energies = [row.energy for row in rows]
    assert all(a > b for a, b in zip(energies, energies[1:]))  # dissipation
    for row in rows:
        rel = abs(row.dEdt_est - row.minus_twice_dirichlet) / abs(row.minus_twice_dirichlet)
        assert rel < 1e-3
        assert run.law_defect(row.t) <= 1e-11  # the scheme's exact law


@PROPERTY
@given(DIMS, COEFFS, st.floats(1e-3, 1.0))
def test_weak_formulation_balance(n, coeffs, t):
    # (1/2) dE/dt + ||v||^2_{weighted Dirichlet} = 0 along the flow, with dE/dt
    # the central difference of the energy over t -/+ h; its relative error
    # is at most (2 mu_5 h)^2 / 6 = 3.3e-8, the measured worst
    f = random_field(n, coeffs)
    d = evolve_spectral(f, t).dirichlet_sq()
    h = 1e-6
    rate = (evolve_spectral(f, t + h).norm_sq() - evolve_spectral(f, t - h).norm_sq()) / (2 * h)
    assert abs(0.5 * rate + d) <= 1e-7 * d


def test_exterior_eigenmode_decay(dim3):
    e1 = make_e1(dim3)
    q = kelvin.kelvin_map(e1)
    w1 = evolution.evolve_exterior(q, 0.1, modes=5)
    (w, _), (w0, _) = u_and_du(w1), u_and_du(q)
    for s in (1.5, 2.5, 7.0):
        assert abs(w(s) - math.exp(-MU1 * 0.1) * w0(s)) < 1e-10


def test_exterior_roundtrip_identity(dim3):
    q = kelvin.kelvin_map(make_e1(dim3))
    back = kelvin.kelvin_map(kelvin.kelvin_map(q))
    (w_back, _), (w, _) = u_and_du(back), u_and_du(q)
    for s in (1.1, 2.0, 5.0, 40.0):
        assert abs(w_back(s) - w(s)) < 1e-12


def test_exterior_fd_route_agrees_with_spectral(dim3):
    # mixed initial data, evolved through the ball by both solvers
    modes = [spectrum.eigenmode(dim3, k) for k in (1, 2)]
    f0 = spectrum.SpectralField(modes, np.array([0.8, 0.5]))
    q0 = kelvin.kelvin_map(f0.profile())
    t = 0.05
    w_spec, _ = u_and_du(evolution.evolve_exterior(q0, t, modes=4))
    # the FD route: march the pullback on the grid, interpolate the final
    # samples linearly and push forward, u(s) = s^-lam v(1/s)
    grid = FDGrid(m=512, dt=1e-4)
    v = FDRun(kelvin.kelvin_map(q0), grid, t).state(t)
    lam = dim3.singular_exponent
    for s in (1.2, 2.0, 4.0, 10.0):
        w_fd = s ** -lam * np.interp(1.0 / s, grid.nodes, v)
        assert abs(w_fd - w_spec(s)) < 1e-4
