import math
from dataclasses import replace

import pytest

from hardylab import approx, hardy
from hardylab.profiles import (MOLLIFY_RADIUS, Dimension, cubic_step, make_e1, make_named,
                               named_profile)
from hardylab.quadrature import integrate
from hardylab.specfun import bessel_j

from oracles import Z01, simpson


def test_cubic_smoothstep_energy():
    # int_1^2 t rho'^2 dt = 9/5 for the cubic ramp: the closed form, checked
    # against the adaptive quadrature and against Simpson
    assert approx.smoothstep_energy() == 9.0 / 5.0
    f = lambda t: t * cubic_step(t - 1.0)[1] ** 2
    quad = integrate(f, 1.0, 2.0)
    assert quad.converged
    assert abs(quad.value - approx.smoothstep_energy()) <= 1e-14
    ref = simpson(f, 1.0, 2.0, 4096)
    assert abs(approx.smoothstep_energy() - ref) < 1e-10


def test_smoothstep_validation():
    # the end conditions the defect limit integrates by parts against:
    # rho(1) = 0, rho(2) = 1, rho'(1) = rho'(2) = 0, clamped outside [1, 2]
    for t, want in ((0.5, 0.0), (1.0, 0.0), (2.0, 1.0), (3.0, 1.0)):
        assert cubic_step(t - 1.0)[0] == want
        assert cubic_step(t - 1.0)[1] == 0.0
    assert abs(cubic_step(1.5 - 1.0)[1] - 1.5) < 1e-15
    h = 1e-6
    for t in (1.2, 1.5, 1.9):
        fd = (cubic_step(t + h - 1.0)[0] - cubic_step(t - h - 1.0)[0]) / (2.0 * h)
        assert abs(fd - cubic_step(t - 1.0)[1]) < 1e-8


def test_naive_cutoff_limit_plateau(dim3):
    # unit plateau: the limit is exactly N omega_N * (9/5)
    p = make_named(dim3, "bump")
    lim = approx.naive_cutoff_limit(p)
    assert abs(lim - dim3.surface_factor * 1.8) < 1e-10
    got = approx.naive_cutoff_defect(p, 1e-4)
    assert abs(got / lim - 1.0) < 1e-2


@pytest.mark.parametrize("name", ["log_power(0.3)", "oscillating(0.3)"])
def test_naive_cutoff_refuses_profiles_without_origin_limit(dim3, name):
    # v(0.0) of these is the value frozen at MOLLIFY_RADIUS, not a limit
    p = named_profile(dim3, name)
    for call in (approx.naive_cutoff_limit, lambda q: approx.naive_cutoff_defect(q, 1e-4)):
        with pytest.raises(ValueError, match="bounded origin limit"):
            call(p)


def test_naive_cutoff_defect_eps_stable(dim3):
    p = make_e1(dim3)
    d3 = approx.naive_cutoff_defect(p, 1e-3)
    d4 = approx.naive_cutoff_defect(p, 1e-4)
    lim = approx.naive_cutoff_limit(p)
    assert abs(d3 - d4) < 1e-2 * lim
    assert abs(d4 / lim - 1.0) < 1e-2


def test_naive_cutoff_defect_vanishing_profile(dim3):
    # no plateau value at the origin, no obstruction
    p = make_named(dim3, "bump", rise=(0.2, 0.35), fall=(0.65, 0.8))
    for eps in (1e-2, 1e-3):
        assert approx.naive_cutoff_defect(p, eps) < 1e-12


def test_log_cutoff_defect_decays_like_inverse_log(dim3):
    p = make_named(dim3, "bump")
    d2 = approx.log_cutoff_defect(p, 1e-2)
    d4 = approx.log_cutoff_defect(p, 1e-4)
    assert abs(d2 / d4 - 2.0) < 0.4  # log(1e4)/log(1e2) = 2, within 20%
    # fitted constants agree across eps
    cs = [approx.log_cutoff_defect(p, e) * math.log(1.0 / e)
          for e in (1e-2, 1e-3, 1e-4)]
    assert (max(cs) - min(cs)) / min(cs) < 0.2
    assert abs(cs[0] - dim3.surface_factor) < 1e-6  # exact for the plateau


def test_log_cutoff_defect_vanishes(dim3):
    p = make_named(dim3, "bump")
    assert approx.log_cutoff_defect(p, 1e-8) < approx.log_cutoff_defect(p, 1e-2)
    zero = make_named(dim3, "bump", height=0.0)
    assert approx.log_cutoff_defect(zero, 1e-3) == pytest.approx(0.0, abs=1e-14)


def test_log_cutoff_defect_deep_ramp(dim3):
    # the ramp's inner edge sits at eps^2 = 1e-80; the leading term of the
    # defect for the ground mode in N = 3 is 4 pi / log(1/eps)
    val = approx.log_cutoff_defect(make_e1(dim3), 1e-40)
    assert val == pytest.approx(4.0 * math.pi / math.log(1e40), rel=1e-6)


def test_log_cutoff_defect_is_dirichlet_energy_of_difference(dim3):
    # the same defect by the generic route: the weighted Dirichlet energy of
    # e1 - log_cutoff(e1) on (0, 1), for a difference built with replace()
    e1 = make_e1(dim3)
    lc = approx.log_cutoff(e1, 1e-25)
    diff = replace(e1, v=lambda r: e1.v(r) - lc.v(r),
                   dv=lambda r: e1.dv(r) - lc.dv(r))
    assert hardy.weighted_dirichlet(diff, 0.0) \
        == pytest.approx(approx.log_cutoff_defect(e1, 1e-25), rel=1e-6)


def test_naive_exceeds_log_by_two_orders(dim3):
    p = make_named(dim3, "bump")
    naive = approx.naive_cutoff_defect(p, 1e-4)
    assert naive >= 100.0 * approx.log_cutoff_defect(p, 1e-25)
    assert naive >= 10.0 * approx.log_cutoff_defect(p, 1e-4)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_log_cutoff_defect_closed_form_on_a_flat_head(n):
    # v = 1 and v' = 0 below 0.4, so the defect is the ramp's own energy:
    # s_N int_{eps^2}^{eps} r^-2 r dr / ln(1/eps)^2 = s_N / ln(1/eps)
    dim = Dimension(n)
    bump = make_named(dim, "bump")
    for eps in (1e-2, 1e-3, 1e-4, 1e-25):
        got = approx.log_cutoff_defect(bump, eps) * math.log(1.0 / eps) / dim.surface_factor
        assert abs(got - 1.0) <= 1e-14, eps


@pytest.mark.parametrize("n", [3, 4, 5])
def test_naive_cutoff_defect_closed_form_on_a_flat_head(n):
    # v = 1 and v' = 0 on (0, 2 eps), so the defect is
    # s_N int (rho'(r/eps)/eps)^2 r dr = s_N int_1^2 t rho'^2 dt at every eps
    dim = Dimension(n)
    bump = make_named(dim, "bump")
    want = 9.0 / 5.0 * dim.surface_factor
    for eps in (0.2, 1e-2, 1e-4):
        assert abs(approx.naive_cutoff_defect(bump, eps) - want) <= 1e-14 * want, eps


def test_log_cutoff_enforces_the_eps_domain(dim3):
    # the ramp starts at eps^2, which may not lie below MOLLIFY_RADIUS; the
    # smallest eps accepted still gives a finite defect on its closed form
    e1, bump = make_e1(dim3), make_named(dim3, "bump")
    edge = math.sqrt(MOLLIFY_RADIUS)
    while edge * edge < MOLLIFY_RADIUS:
        edge = math.nextafter(edge, 1.0)
    for bad in (math.nextafter(edge, 0.0), 1e-145, 1e-150, 1e-300, 0.0, 1.0):
        with pytest.raises(ValueError, match=r"eps\^2 >= MOLLIFY_RADIUS"):
            approx.log_cutoff(e1, bad)
        with pytest.raises(ValueError, match=r"eps\^2 >= MOLLIFY_RADIUS"):
            approx.log_cutoff_defect(e1, bad)
    got = approx.log_cutoff_defect(bump, edge) * math.log(1.0 / edge) / dim3.surface_factor
    assert abs(got - 1.0) <= 1e-14
    assert math.isfinite(approx.log_cutoff_defect(e1, edge))


def test_e1_obstruction_zero_competitor(dim3):
    zero = make_named(dim3, "bump", height=0.0,
                      rise=(0.2, 0.35), fall=(0.65, 0.8))
    val = approx.e1_obstruction(zero)
    # distance to zero = the bare functional of the ground mode itself
    pv = hardy.principal_value(make_e1(dim3))
    assert abs(val - pv.limit) < 1e-7
    assert val >= dim3.hs_constant


def test_e1_obstruction_never_below_bound(dim3):
    # logarithmically mollified copies of the ground mode approach the bound
    # from above but cannot cross it
    e1 = make_e1(dim3)
    bound = dim3.hs_constant
    vals = [approx.e1_obstruction(approx.log_cutoff(e1, eps))
            for eps in (1e-6, 1e-12, 1e-18)]
    assert all(v >= bound - 1e-9 for v in vals)
    assert vals[2] < vals[1] < vals[0]
    assert vals[2] < 1.05 * bound  # within 5 percent of the bound


def test_e1_obstruction_rejects_nonvanishing(dim3):
    with pytest.raises(ValueError):
        approx.e1_obstruction(make_named(dim3, "bump"))


@pytest.mark.parametrize("n,expected", [(3, 1.0), (4, 0.5), (5, 1.0 / 3.0)])
def test_dim_reduction_ratio(n, expected):
    dim = Dimension(n)
    p = make_named(dim, "bump")
    assert abs(approx.dim_reduction(p, 1.0) - expected) < 1e-7


def test_dim_reduction_radius_independent(dim4):
    from hardylab.profiles import RadialProfile

    ratios = []
    for radius in (1.0, 7.0):
        base = make_named(dim4, "bump", fall=(0.4 * radius, 0.8 * radius))
        p = RadialProfile(dim=dim4, v=base.v, dv=base.dv, support=(0.0, radius),
                          origin_class="finite_limit")
        ratios.append(approx.dim_reduction(p, radius))
    assert abs(ratios[0] - ratios[1]) < 1e-8


def test_dim_reduction_on_ground_mode(dim3):
    assert abs(approx.dim_reduction(make_e1(dim3), 1.0) - 1.0) < 1e-7


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("profile, radius", [("bump", 0.3), ("bump", 0.4),
                                             ("log_ramp(1e-6)", 1e-7), ("e1", math.inf)])
def test_dim_reduction_refuses_a_flat_radius(n, profile, radius):
    # at or below the flat radius both energies are 0: the bump at R = 0.3
    # returned a clean 0/0 at N = 3 and raised TypeError at N = 4 and 5
    p = named_profile(Dimension(n), profile)
    with pytest.raises(ValueError, match=f"flat radius {p.flat_below:g}"):
        approx.dim_reduction(p, radius)
