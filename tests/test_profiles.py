import math
from dataclasses import replace

import numpy as np
import pytest

from hardylab import approx, hardy, kelvin, spectrum, wholespace
from hardylab.profiles import (
    MOLLIFY_RADIUS,
    Dimension,
    cubic_step,
    make_e1,
    make_mode,
    make_named,
    make_subcritical,
    named_profile,
)
from hardylab.specfun import bessel_j, bessel_zero

from oracles import Z01, central_diff, classify_origin, scaled


def test_dimension_constants(dim3, dim4):
    assert dim3.critical_coefficient == 0.25
    assert dim4.critical_coefficient == 1.0
    assert abs(dim3.ball_volume - 4.0 * math.pi / 3.0) < 1e-15
    assert abs(dim4.ball_volume - math.pi**2 / 2.0) < 1e-15
    assert abs(dim3.hs_constant - 2.0 * math.pi) < 1e-14
    assert abs(dim4.hs_constant - 2.0 * math.pi**2) < 1e-13


def test_dimension_validation():
    with pytest.raises(ValueError):
        Dimension(2)


def test_e1_regular_part(dim3):
    p = make_e1(dim3)
    assert abs(p.v(0.0) - 1.0) < 1e-12
    assert abs(p.v(1.0)) < 1e-11  # boundary zero located by the zero finder
    # defining relation u * r^lam = v
    r = 0.5
    assert abs(p.u(r) * r**dim3.singular_exponent - bessel_j(0.0, Z01 * r)) < 1e-14
    assert p.origin_class == "finite_limit"


def test_subcritical_near_critical(dim3):
    c_star = dim3.critical_coefficient
    p = make_subcritical(dim3, c_star - 1e-12)
    z = bessel_zero(math.sqrt(1e-12), 1)
    assert abs(z * z - Z01 * Z01) < 1e-4  # zeros continuous in the order
    assert p.origin_class == "vanishing"


def test_subcritical_c_zero_bounded_at_origin(dim4):
    # u = r^{-m} J_m(z r) with m = (N-2)/2: the r^m vanishing of J_m exactly
    # cancels the singular prefactor
    p = make_subcritical(dim4, 0.0)
    m = dim4.singular_exponent
    z = bessel_zero(m, 1)
    cap = (z / 2.0) ** m / math.gamma(m + 1.0)  # the finite limit of u at 0
    for r in (1e-3, 1e-6, 1e-9):
        assert abs(p.u(r)) < 1.1 * cap


def test_subcritical_singularity_energy_vanishes(dim3):
    # the H^1_0 membership signature: surface energy -> 0 at the origin,
    # at the rate eps^{2m} of the J_m vanishing
    p = make_subcritical(dim3, 0.1)
    vals = [hardy.singularity_energy(p, 10.0**-j) for j in range(1, 13)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-8


def test_subcritical_domain(dim3):
    with pytest.raises(ValueError):
        make_subcritical(dim3, -0.1)
    with pytest.raises(ValueError):
        make_subcritical(dim3, dim3.critical_coefficient)


@pytest.mark.parametrize("name,expected", [
    ("e1", "finite_limit"),
    ("bump", "finite_limit"),
    ("constant_plateau", "finite_limit"),
    ("annular_bump", "vanishing"),
    ("subcritical(0.2)", "vanishing"),
    ("log_power(0.3)", "log_divergent"),
    ("oscillating(0.3)", "oscillating"),
    ("log_ramp(1e-6)", "finite_limit"),
])
def test_declared_class_matches_sampled_class(dim3, name, expected):
    p = named_profile(dim3, name)
    assert p.origin_class == expected
    assert classify_origin(p) == expected


def test_membership_flag(dim3):
    assert make_named(dim3, "log_power", a=0.3).member
    assert not make_named(dim3, "log_power", a=0.5).member
    assert not make_named(dim3, "oscillating", a=0.7).member


def test_log_power_inside_regime_has_finite_energy(dim3):
    p = make_named(dim3, "log_power", a=0.3)
    full = hardy.weighted_dirichlet(p, 0.0)
    assert math.isfinite(full) and full > 0


def test_log_power_outside_regime_diverges_under_refinement(dim3):
    from hardylab.quadrature import DEEP_EPS_SEQUENCE, integrate_to_limit

    p = make_named(dim3, "log_power", a=0.5)
    res = integrate_to_limit(lambda d: hardy.weighted_dirichlet(p, d), DEEP_EPS_SEQUENCE)
    assert res.classification == "diverging"


def test_bump_singularity_energy_value(dim3):
    # plateau of height 1 near the origin: limit is N(N-2)/2 omega_N
    p = make_named(dim3, "bump")
    val = hardy.singularity_energy(p, 1e-6)
    assert abs(val - dim3.hs_constant) < 1e-12


@pytest.mark.parametrize("name", ["e1", "bump", "constant_plateau",
                                  "log_power(0.3)", "oscillating(0.3)",
                                  "subcritical(0.1)", "log_ramp(1e-6)"])
def test_derivative_consistency(dim3, name):
    p = named_profile(dim3, name)
    for r in (0.02, 0.11, 0.37, 0.52, 0.78):
        h = 1e-6 * r
        fd = central_diff(p.v, r, h)
        dv = p.dv(r)
        if abs(dv) > 1e-10:
            assert abs(fd - dv) / abs(dv) < 1e-6
        else:
            assert abs(fd - dv) < 1e-8


def test_scaled(dim3):
    p = scaled(make_e1(dim3), 2.5)
    assert abs(p.v(0.3) - 2.5 * bessel_j(0.0, Z01 * 0.3)) < 1e-14


def test_mode_profiles(dim3):
    p = make_mode(dim3, 3)
    assert abs(p.v(1.0)) < 1e-11
    assert abs(p.v(0.0) - 1.0) < 1e-12


def test_named_profile_parser(dim3):
    assert named_profile(dim3, "mode(2)").name == "mode2"
    assert named_profile(dim3, "log_power(0.45)").name == "log_power(0.45)"
    assert named_profile(dim3, "log_ramp(1e-6)").name == "log_ramp(1e-06)"
    with pytest.raises(ValueError):
        named_profile(dim3, "nonsense")


@pytest.mark.parametrize("text", ["e1(7)", "bump(3)", "annular_bump(0.5)",
                                  "constant_plateau(2)", "nonsense(1)", "mode(2.5)",
                                  "log_ramp(1e-300)"])
def test_named_profile_refuses_an_argument_it_cannot_set(dim3, text):
    # only the kinds of one parameter take "(X)"; an argument is never dropped
    with pytest.raises(ValueError):
        named_profile(dim3, text)


def test_annular_bump_support(dim3):
    p = named_profile(dim3, "annular_bump")
    assert p.support == (0.2, 0.8)
    assert p.v(0.1) == 0.0 and p.v(0.9) == 0.0
    assert p.v(0.5) > 0.5


#: branch points of the named profiles: the origin, the log freeze, r_c = 1/e,
#: log_ramp's delta, the bump windows, constant_plateau's plateau_end and
#: support_end, and the unit radius
BRANCH_POINTS = [0.0, MOLLIFY_RADIUS, 1e-6, 0.2, 0.35, math.exp(-1.0), 0.4, 0.65,
                 0.8, 0.9, 1.0]
RADII = np.array(sorted({x for b in BRANCH_POINTS
                         for x in (b, np.nextafter(b, -1.0), np.nextafter(b, 2.0))
                         if x >= 0.0} | {1e-250, 1e-12, 0.5, 1.3}))


def assert_array_contract(fn, x):
    """An array call equals the per-point calls, each of which is a float.

    numpy's vector loops for pow, exp and log may round the last bit
    differently from its scalar math, so equality is to 4 ulp.
    """
    with np.errstate(all="ignore"):  # some derivatives are singular at 0
        whole = fn(x)
        points = [fn(float(xi)) for xi in x]
    assert isinstance(whole, np.ndarray) and whole.shape == x.shape
    assert all(isinstance(y, float) for y in points), [type(y) for y in points]
    np.testing.assert_allclose(whole, np.array(points), rtol=4 * np.finfo(float).eps, atol=0.0)


ARRAY_PROFILES = ["e1", "mode(3)", "bump", "annular_bump", "constant_plateau",
                  "log_power(0.3)", "oscillating(0.3)", "log_power(0.7)",
                  "subcritical(0.1)", "log_ramp(1e-6)"]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", ARRAY_PROFILES)
def test_named_profiles_are_array_functions(n, name):
    p = named_profile(Dimension(n), name)
    for fn in (p.v, p.dv, scaled(p, -1.5).v, scaled(p, -1.5).dv):
        assert_array_contract(fn, RADII)


#: every make_named kind with the parameter its "(X)" sets, if any
NAMED_KINDS = {"e1": None, "mode": "k", "subcritical": "c", "log_power": "a",
               "oscillating": "a", "log_ramp": "delta", "bump": None,
               "annular_bump": None, "constant_plateau": None}


def assert_same_profile(p, q):
    """p and q carry the same name, class and support, and bitwise-equal
    v and dv on RADII."""
    assert (p.name, p.origin_class, p.support, p.flat_below, p.member) == \
        (q.name, q.origin_class, q.support, q.flat_below, q.member)
    with np.errstate(all="ignore"):  # some derivatives are singular at 0
        for f, g in ((p.v, q.v), (p.dv, q.dv)):
            np.testing.assert_array_equal(f(RADII), g(RADII))


@pytest.mark.parametrize("kind", sorted(NAMED_KINDS))
def test_named_profile_is_make_named(dim3, kind):
    # make_named is the one table of names and defaults; named_profile parses
    assert_same_profile(named_profile(dim3, kind), make_named(dim3, kind))
    param = NAMED_KINDS[kind]
    if param is not None:
        arg = {"mode": "3", "subcritical": "0.1", "log_ramp": "1e-12"}.get(kind, "0.45")
        assert_same_profile(named_profile(dim3, f"{kind}({arg})"),
                            make_named(dim3, kind, **{param: float(arg)}))


def test_annular_bump_is_the_bump_with_both_windows(dim3):
    assert_same_profile(make_named(dim3, "annular_bump"),
                        make_named(dim3, "bump", rise=(0.2, 0.35), fall=(0.65, 0.8)))


def test_cubic_step_values_and_derivative():
    t = np.array([-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0])
    rho, drho = cubic_step(t)
    np.testing.assert_array_equal(rho, [0.0, 0.0, 0.15625, 0.5, 0.84375, 1.0, 1.0])
    np.testing.assert_array_equal(drho, [0.0, 0.0, 1.125, 1.5, 1.125, 0.0, 0.0])


@pytest.mark.parametrize("height", [1.0, 2.0])
def test_constant_plateau_keeps_its_expressions(dim3, height):
    # the plateau's fall is the cubic step; bitwise the expressions it used
    # to write out itself
    p = make_named(dim3, "constant_plateau", height=height)
    w = 0.9 - 0.4
    t = np.clip((RADII - 0.4) / w, 0.0, 1.0)
    np.testing.assert_array_equal(p.v(RADII), height * (1.0 - t * t * (3.0 - 2.0 * t)))
    np.testing.assert_array_equal(p.dv(RADII), -height * 6.0 * t * (1.0 - t) / w)


@pytest.mark.parametrize("name", ["e1", "bump", "log_power(0.3)", "oscillating(0.3)"])
def test_kelvin_images_are_array_functions(dim3, name):
    q = kelvin.kelvin_map(named_profile(dim3, name))
    s = 1.0 / RADII[(RADII > 1e-300) & (RADII <= 1.0)]
    for fn in (q.u, q.du, q.v, q.dv):
        assert_array_contract(fn, s)
    back = kelvin.kelvin_map(q)
    for fn in (back.v, back.dv):
        assert_array_contract(fn, RADII)


def test_derived_profiles_are_array_functions(dim3):
    cap = make_named(dim3, "bump", fall=(1.0, 5.0))
    crit = wholespace.bessel_weighted(cap)
    # J_0(0) = 1: the weighted profile keeps what its factor says about the
    # origin, its membership and its support
    annular = replace(make_named(dim3, "bump", rise=(0.5, 1.0), fall=(1.0, 5.0)),
                      member=False)
    for base in (cap, annular):
        got = wholespace.bessel_weighted(base)
        assert (got.origin_class, got.member, got.support) == \
            (base.origin_class, base.member, base.support)
    modes = [spectrum.eigenmode(dim3, k) for k in (1, 2, 3)]
    field = spectrum.SpectralField(modes, np.array([1.0, 0.4, -0.2])).profile()
    for p in (crit, field):
        for fn in (p.v, p.dv):
            assert_array_contract(fn, np.concatenate([RADII, [2.4, 4.99, 5.0, 7.0]]))


#: flat_below of every named profile that declares one; the rest declare 0.0
DECLARED_FLAT = {"bump": 0.4, "annular_bump": 0.2, "constant_plateau": 0.4,
                 "log_ramp(1e-6)": 1e-6}


def assert_flat_below(p):
    """dv is exactly 0 on a geometric grid from MOLLIFY_RADIUS up to and at
    p.flat_below, for an array call and for each float call."""
    r = np.append(np.geomspace(MOLLIFY_RADIUS, p.flat_below, 600), p.flat_below)
    assert np.all(p.dv(r) == 0.0), p.name
    assert all(p.dv(float(x)) == 0.0 for x in r[::25]), p.name


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", ARRAY_PROFILES)
def test_flat_below_declarations_hold(n, name):
    p = named_profile(Dimension(n), name)
    assert p.flat_below == DECLARED_FLAT.get(name, 0.0)
    if p.flat_below > 0.0:
        assert_flat_below(p)
        assert_flat_below(scaled(p, -1.5))
    assert scaled(p, -1.5).flat_below == p.flat_below


@pytest.mark.parametrize("name", ["e1", "bump", "log_power(0.3)", "subcritical(0.1)"])
@pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-25])
def test_log_cutoff_declares_its_inner_edge(dim3, name, eps):
    p = approx.log_cutoff(named_profile(dim3, name), eps)
    assert p.flat_below == eps * eps
    assert_flat_below(p)


@pytest.mark.parametrize("delta", [1e-3, 1e-12, 1e-20, 1e-100])
def test_log_ramp_declaration_at_every_depth(dim3, delta):
    assert_flat_below(make_named(dim3, "log_ramp", delta=delta))


def test_profiles_with_new_dv_declare_nothing(dim3, monkeypatch):
    bump = make_named(dim3, "bump")
    assert wholespace.bessel_weighted(bump).flat_below == 0.0
    # the Kelvin image of a profile flat near the origin is flat near infinity
    assert kelvin.kelvin_map(bump).flat_below == 0.0
    assert kelvin.kelvin_map(kelvin.kelvin_map(bump)).flat_below == 0.0
    modes = [spectrum.eigenmode(dim3, k) for k in (1, 2)]
    assert spectrum.SpectralField(modes, np.array([1.0, 0.5])).profile().flat_below == 0.0
    # e1_obstruction integrates e1 - phi, whose dv is e1's below phi's radius
    seen = []
    plain = hardy.principal_value

    def spy(p, *args, **kwargs):
        seen.append(p)
        return plain(p, *args, **kwargs)

    monkeypatch.setattr(hardy, "principal_value", spy)
    approx.e1_obstruction(approx.log_cutoff(make_e1(dim3), 1e-6))
    assert [p.flat_below for p in seen] == [0.0]


def test_flat_below_must_lie_below_the_support_end(dim3):
    bump = make_named(dim3, "bump")
    for bad in (-1e-3, 0.8, 2.0):
        with pytest.raises(ValueError):
            replace(bump, flat_below=bad)


def test_surface_term_reads_a_deep_flat_head(dim3):
    # v(1e-12) is still on the ramp of log_ramp(delta) for delta < 1e-12:
    # 0.6 for delta = 1e-20, 0.923 for delta = 1e-13; the surface term at
    # the origin reads the head's v = 1 all the same
    for delta in (1e-13, 1e-20, 1e-100):
        p = make_named(dim3, "log_ramp", delta=delta)
        assert hardy.singularity_energy(p, 0.0) == dim3.hs_constant
        assert p.v(1e-12) < 0.93
    # where the head reaches above 1e-12 both readings give the same value
    for name in ("bump", "constant_plateau", "log_ramp(1e-6)", "annular_bump"):
        p = named_profile(dim3, name)
        assert p.v(0.0) == p.v(1e-12)
