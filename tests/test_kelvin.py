import math

import numpy as np
import pytest

from hardylab import hardy, kelvin
from hardylab.profiles import Dimension, make_e1, make_named, named_profile
from hardylab.quadrature import DEEP_EPS_SEQUENCE, integrate, integrate_to_limit
from hardylab.specfun import bessel_j

from oracles import Z01, central_diff, simpson, u_and_du

MU1 = Z01 * Z01


def test_ground_mode_image_formula(dim3):
    w, _ = u_and_du(kelvin.kelvin_map(make_e1(dim3)))
    for s in (1.0, 1.7, 3.2, 11.0):
        want = s ** (-0.5) * bessel_j(0.0, Z01 / s)
        assert abs(w(s) - want) < 1e-14


def test_involution(dim3):
    p = make_e1(dim3)
    back = kelvin.kelvin_map(kelvin.kelvin_map(p))
    (u, _), (u_back, _) = u_and_du(p), u_and_du(back)
    for r in np.linspace(0.02, 0.99, 29):
        assert abs(back.v(r) - p.v(r)) < 1e-13
        assert abs(u_back(r) - u(r)) < 1e-13 * max(1.0, abs(u(r)))
    # the image is a RadialProfile again: a non-member keeps its tags
    q = named_profile(dim3, "log_power(0.7)")
    back = kelvin.kelvin_map(kelvin.kelvin_map(q))
    assert not q.member
    assert (back.support, back.origin_class, back.member) \
        == (q.support, q.origin_class, q.member)


def test_support_must_lie_on_one_side_of_the_sphere(dim3):
    # a profile straddling |x| = 1 has no image on either side
    straddle = make_named(dim3, "bump", fall=(0.5, 2.0))
    with pytest.raises(ValueError):
        kelvin.kelvin_map(straddle)


def test_change_of_variables_measure(dim3):
    # mass is conserved with the inversion weight: int u^2 dx over the ball
    # equals int w^2 |y|^-4 dy over the exterior
    p = make_e1(dim3)
    w, _ = u_and_du(kelvin.kelvin_map(p))
    ball = hardy.weighted_l2_sq(p)
    n = dim3.n
    ext = dim3.surface_factor * integrate(
        lambda s: w(s) ** 2 * s ** (n - 5), 1.0, 2e5).value
    assert abs(ball - ext) < 1e-5


def test_inversion_identity(dim3):
    p = make_e1(dim3)
    for eps in (1e-2, 1e-3):
        chk = kelvin.identity_check(p, eps)
        assert abs(chk.defect) < 1e-7
        assert abs(chk.surface_defect) < 1e-10


def test_identity_for_vanishing_class(dim3):
    # both surface corrections vanish: interior and exterior functionals meet
    p = named_profile(dim3, "annular_bump")
    chk = kelvin.identity_check(p, 1e-2)
    assert chk.interior_surface == 0.0
    assert chk.exterior_surface == 0.0
    assert abs(chk.interior - chk.exterior) < 1e-8


def test_surface_terms_scale_quadratically(dim3):
    one = make_named(dim3, "bump", height=1.0)
    two = make_named(dim3, "bump", height=2.0)
    c1 = kelvin.identity_check(one, 1e-3)
    c2 = kelvin.identity_check(two, 1e-3)
    assert abs(c2.interior_surface - 4.0 * c1.interior_surface) < 1e-10
    assert abs(c2.exterior_surface - 4.0 * c1.exterior_surface) < 1e-10


def test_exterior_norm_is_unitary(dim3):
    p = make_e1(dim3)
    q = kelvin.kelvin_map(p)
    nrm = kelvin.exterior_norm(q)
    interior = hardy.cutoff_norm(p)
    assert nrm.classification == "converged"
    assert abs(nrm.limit - interior.limit) <= 1e-7 * (1.0 + abs(interior.limit))


@pytest.mark.parametrize("n", [3, 4])
def test_exterior_norm_follows_cutoff_norm_on_log_family(n):
    # the image takes the interior's eps grid and integrand form, so it
    # reports the interior value for members and diverges for the rest
    dim = Dimension(n)
    for a in (0.1, 0.2, 0.3, 0.36, 0.4):
        p = named_profile(dim, f"log_power({a})")
        nrm = kelvin.exterior_norm(kelvin.kelvin_map(p))
        interior = hardy.cutoff_norm(p)
        assert nrm.classification == "converged"
        assert abs(nrm.limit - interior.limit) <= 1e-7 * abs(interior.limit)
    for name in ("log_power(0.5)", "log_power(0.7)", "oscillating(0.7)"):
        q = kelvin.kelvin_map(named_profile(dim, name))
        assert kelvin.exterior_norm(q).classification == "diverging"


@pytest.mark.parametrize("name", [
    "e1", "bump",
    pytest.param("log_power(0.3)", marks=pytest.mark.xfail(
        strict=True,
        reason="the whole-interval route is the wrong one here: on (1, 1e32) the "
               "initial piece in ln s that holds the bridge's C1 junction at s = e "
               "spans 18 decades, and the integral reports |K21 - G10| = 8.8e-16 "
               "against a true error of 5.1e-7"))])
def test_exterior_norm_samples_match_whole_interval(dim3, name):
    # exterior_norm sums slices in S = 1/eps; each sample equals the
    # functional on the whole (1, 1/eps) plus the surface term
    q = kelvin.kelvin_map(named_profile(dim3, name))
    grid = hardy.eps_grid(q)
    res = kelvin.exterior_norm(q)
    assert res.dropped == []
    for eps, got in zip(grid, res.samples):
        S = 1.0 / eps
        want = (hardy.annulus_functional(q, 1.0, S, method="reduced")
                + hardy.singularity_energy(q, S))
        assert abs(got - want) <= 1e-9 * abs(want), eps


def test_exterior_norm_compact_support_is_plain_functional(dim3):
    p = named_profile(dim3, "annular_bump")
    q = kelvin.kelvin_map(p)
    nrm = kelvin.exterior_norm(q)
    plain = kelvin.exterior_functional(q, 1e4)
    assert abs(nrm.limit - plain) < 1e-9


def test_exterior_norm_oscillating_preimage(dim3):
    # the truncated exterior functional has no limit; the corrected one is
    # test_exterior_norm_of_oscillating_preimage_converges
    p = named_profile(dim3, "oscillating(0.3)")
    q = kelvin.kelvin_map(p)
    bare = integrate_to_limit(
        lambda e: hardy.annulus_functional(q, 1.0, 1.0 / e, method="reduced"),
        DEEP_EPS_SEQUENCE)
    assert bare.classification == "oscillating"


@pytest.mark.xfail(
    strict=True,
    reason="between eps = 1e-1 and 1e-250, s^0.3 (s = ln(1/eps)) runs from 1.28 "
           "to 6.73, less than one period of sin, so no converged verdict on "
           "these samples would be true; the limit needs the law route "
           "(ROADMAP item 18)")
def test_exterior_norm_of_oscillating_preimage_converges(dim3):
    q = kelvin.kelvin_map(named_profile(dim3, "oscillating(0.3)"))
    assert kelvin.exterior_norm(q).classification == "converged"


def test_sign_structure(dim3):
    # exterior functional + surface term is the image of a nonnegative
    # quantity, hence nonnegative for every eps
    for name in ("e1", "bump", "annular_bump"):
        q = kelvin.kelvin_map(named_profile(dim3, name))
        for eps in (1e-1, 1e-3, 1e-5):
            S = 1.0 / eps
            val = kelvin.exterior_functional(q, S) + hardy.singularity_energy(q, S)
            assert val >= -1e-9


def test_hidden_energy_is_additive(dim3):
    # exterior norm = truncated exterior functional + surface energy at
    # infinity, with the + sign (opposite to the interior regularization)
    p = make_e1(dim3)
    q = kelvin.kelvin_map(p)
    nrm = kelvin.exterior_norm(q)
    i_ext = kelvin.exterior_functional(q, 4.0e4)
    hs = hardy.singularity_energy(p, 0.0)
    assert abs((nrm.limit - i_ext) - hs) < 1e-5


def test_exterior_functional_compactly_supported_positive(dim3):
    q = kelvin.kelvin_map(named_profile(dim3, "annular_bump"))
    assert kelvin.exterior_functional(q, 1e3) > 0.0


def test_exterior_functional_ground_image_value(dim3):
    # truncated functional tends to (cutoff norm) - (surface energy); for the
    # unit-plateau ground mode in dimension 3 this is positive
    p = make_e1(dim3)
    q = kelvin.kelvin_map(p)
    val = kelvin.exterior_functional(q, 4.0e4)
    want = hardy.cutoff_norm(p).limit - dim3.hs_constant
    assert abs(val - want) < 1e-5
    assert val > 0.0


@pytest.mark.parametrize("n,sign", [(4, -1.0), (5, -1.0)])
def test_exterior_functional_ground_image_sign_higher_dim(n, sign):
    # the surface energy grows with the ball volume and overtakes the norm
    # from dimension 4 on: the truncated exterior functional goes negative
    dim = Dimension(n)
    p = make_e1(dim)
    q = kelvin.kelvin_map(p)
    val = kelvin.exterior_functional(q, 2.0e4)
    want = hardy.cutoff_norm(p).limit - dim.hs_constant
    assert abs(val - want) < 1e-4 * (1.0 + abs(want))
    assert math.copysign(1.0, val) == sign


def test_exterior_functional_negative_for_slow_profile_dim3(dim3):
    # in dimension 3 the hidden term dominates for a profile that carries
    # unit trace with nearly minimal Dirichlet energy (logarithmic ramp)
    ramp = named_profile(dim3, "log_ramp(1e-6)")
    q = kelvin.kelvin_map(ramp)
    val = kelvin.exterior_functional(q, 1e7)
    want = hardy.weighted_dirichlet(ramp, 0.0) - dim3.hs_constant
    assert val < 0.0
    assert abs(val - want) < 1e-4


def test_exterior_eigen_equation_residual(dim3):
    # -w'' - 2 w'/s - c* w/s^2 = mu s^-4 w along the ground image, second
    # derivative by central difference of the analytic first derivative
    w, dw = u_and_du(kelvin.kelvin_map(make_e1(dim3)))
    c_star = dim3.critical_coefficient
    for s in np.linspace(1.05, 50.0, 40):
        d2 = central_diff(dw, s, 1e-6 * s)
        lhs = -d2 - (dim3.n - 1) / s * dw(s) - c_star * w(s) / s**2
        rhs = MU1 * s**-4 * w(s)
        assert abs(lhs - rhs) < 1e-8
