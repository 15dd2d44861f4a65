import math
from dataclasses import replace

import numpy as np
import pytest

from hardylab import approx, hardy, kelvin
from hardylab.profiles import (
    MOLLIFY_RADIUS,
    ORIGIN_CLASSES,
    Dimension,
    make_e1,
    make_named,
    named_profile,
)
from hardylab.quadrature import (
    DEEP_EPS_SEQUENCE,
    DEFAULT_EPS_SEQUENCE,
    LimitResult,
    NonConvergenceError,
    integrate,
    integrate_to_limit,
)
from hardylab.specfun import bessel_j

from oracles import Z01, dirichlet_limit, log_family_law, oscillating_tail, simpson

LIBRARY = ["e1", "bump", "annular_bump", "constant_plateau",
           "log_power(0.3)", "oscillating(0.3)", "subcritical(0.1)"]

#: the eps-route to the limit of oscillating(0.3) cannot be read on the deep grid
OSCILLATION_BEYOND_THE_GRID = pytest.mark.xfail(
    strict=True,
    reason="between eps = 1e-1 and 1e-250, s^0.3 (s = ln(1/eps)) runs from 1.28 "
           "to 6.73, less than one period of sin, so no converged verdict on "
           "these samples would be true; the limit needs the law route "
           "(ROADMAP item 18)")

#: integrand points one cutoff_norm call may spend in N = 3; a change may
#: lower these bounds, never raise them
CUTOFF_NORM_EVAL_BOUNDS = {"e1": 126, "bump": 273, "log_power(0.3)": 1_449,
                           "constant_plateau": 21, "annular_bump": 567,
                           "log_ramp(1e-6)": 336}


@pytest.mark.parametrize("name", LIBRARY)
def test_decomposition_identity(dim3, name):
    # annulus functional (u-form quadrature) = weighted Dirichlet + surface
    # energy, for every profile and every eps
    p = named_profile(dim3, name)
    for eps in DEFAULT_EPS_SEQUENCE:
        b = hardy.breakdown(p, eps)
        assert abs(b.residual) <= 1e-7 * (1.0 + abs(b.annulus))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("delta", [0.5, 0.05, 1e-3, 1e-6])
def test_decomposition_identity_across_a_log_ramps_kink(n, delta):
    # v' jumps at the ramp's inner end delta; the u-form quadrature splits
    # there, so the identity holds to rounding wherever delta lies
    p = named_profile(Dimension(n), f"log_ramp({delta:g})")
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8):
        b = hardy.breakdown(p, eps)
        assert abs(b.residual) <= 1e-14 * (1.0 + abs(b.annulus))


@pytest.mark.parametrize("name", LIBRARY)
def test_nonnegativity(dim3, name):
    p = named_profile(dim3, name)
    for eps in (1e-1, 1e-3, 1e-6):
        assert hardy.singularity_energy(p, eps) >= 0.0
        assert hardy.annulus_functional(p, eps) >= -1e-10


def test_annulus_matches_dirichlet_plus_surface(dim3):
    p = make_e1(dim3)
    i_val = hardy.annulus_functional(p, 1e-3, 1.0)
    rhs = hardy.weighted_dirichlet(p, 1e-3, 1.0) + hardy.singularity_energy(p, 1e-3)
    assert abs(i_val - rhs) < 1e-7


def test_annulus_independent_of_eps_for_annular_support(dim3):
    p = named_profile(dim3, "annular_bump")  # supported in (0.2, 0.8)
    vals = [hardy.annulus_functional(p, eps, 1.0) for eps in (0.19, 0.05, 1e-3)]
    assert max(vals) - min(vals) < 1e-9
    # an annulus that misses the support carries no energy at all
    assert hardy.annulus_functional(p, 0.85, 1.0) == 0.0
    assert hardy.annulus_functional(p, 0.01, 0.2) == 0.0


def test_annulus_limit_value_e1(dim3):
    # as eps -> 0 the bare functional approaches z^2 ||u||^2 + the surface
    # energy 2 pi (dimension 3, unit plateau value)
    p = make_e1(dim3)
    l2 = hardy.weighted_l2_sq(p)
    target = Z01 * Z01 * l2 + 2.0 * math.pi
    got = hardy.annulus_functional(p, 1e-6, 1.0)
    assert abs(got - target) < 1e-5


def test_weighted_dirichlet_e1_against_simpson(dim3):
    # v' = -z J_1(z r): energy reduces to z^2 * s_N * int J_1(z r)^2 r dr
    got = hardy.weighted_dirichlet(make_e1(dim3), 0.0, 1.0)
    ref = dim3.surface_factor * Z01 * Z01 * simpson(
        lambda r: bessel_j(1.0, Z01 * r) ** 2 * r, 0.0, 1.0, 8192)
    assert abs(got - ref) < 1e-8


def test_weighted_dirichlet_of_constant_is_zero(dim3):
    p = make_named(dim3, "constant_plateau", plateau_end=0.5, support_end=0.9)
    assert hardy.weighted_dirichlet(p, 0.0, 0.45) == pytest.approx(0.0, abs=1e-14)


def test_singularity_energy_limits(dim3):
    e1 = make_e1(dim3)
    assert abs(hardy.singularity_energy(e1, 1e-7) - 2.0 * math.pi) < 1e-10
    vanishing = named_profile(dim3, "subcritical(0.1)")
    assert hardy.singularity_energy(vanishing, 1e-12) < 1e-8


def test_singularity_energy_refuses_a_radius_below_zero(dim3):
    # a negative radius read the bump's plateau (2 pi), and nan gave nan;
    # eps = 0 reads the origin
    bump = make_named(dim3, "bump")
    for eps in (-1.0, -1e-300, math.nan):
        with pytest.raises(ValueError, match="eps >= 0"):
            hardy.singularity_energy(bump, eps)
    assert hardy.singularity_energy(bump, 0.0) == dim3.hs_constant


def test_singularity_energy_diverges_for_log_class(dim3):
    p = named_profile(dim3, "log_power(0.3)")
    res = integrate_to_limit(lambda e: hardy.singularity_energy(p, e),
                             DEEP_EPS_SEQUENCE)
    assert res.classification == "diverging"


def test_cutoff_norm_is_rayleigh_eigenvalue(dim3):
    p = make_e1(dim3)
    res = hardy.cutoff_norm(p)
    assert res.classification == "converged"
    l2 = hardy.weighted_l2_sq(p)
    assert abs(res.limit / l2 - Z01 * Z01) < 1e-8


@pytest.mark.parametrize("name", LIBRARY)
def test_cutoff_norm_equals_dirichlet(dim3, name):
    # the regularized limit recovers the weighted Dirichlet energy; for the
    # slowly-converging log classes compare pointwise along the sequence
    # (whether their limits converge is test_cutoff_norm_converges_on_log_members)
    p = named_profile(dim3, name)
    if p.origin_class in ("finite_limit", "vanishing"):
        res = hardy.cutoff_norm(p)
        assert res.classification == "converged"
        full = hardy.weighted_dirichlet(p, 0.0)
        assert abs(res.limit - full) <= 1e-6 * (1.0 + abs(full))
    else:
        for eps in (1e-2, 1e-4, 1e-6):
            lhs = hardy.annulus_functional(p, eps) - hardy.singularity_energy(p, eps)
            rhs = hardy.weighted_dirichlet(p, eps)
            assert abs(lhs - rhs) <= 1e-4 * (1.0 + abs(rhs))


@pytest.mark.parametrize("name", [
    "log_power(0.3)", pytest.param("oscillating(0.3)", marks=OSCILLATION_BEYOND_THE_GRID)])
def test_cutoff_norm_converges_on_log_members(dim3, name):
    assert hardy.cutoff_norm(named_profile(dim3, name)).classification == "converged"


def test_cutoff_norm_diverges_outside_regime(dim3):
    p = make_named(dim3, "log_power", a=0.5)
    res = hardy.cutoff_norm(p)
    assert res.classification == "diverging"


#: every origin class, and members and non-members of both log families, up
#: to the log_power members next to a = 1/2, whose differences contract by
#: only 2^(2a-1) per deep-grid step
LIMIT_SWEEP = (
    ["e1", "mode(2)", "bump", "annular_bump", "constant_plateau", "subcritical(0.1)",
     "log_ramp(1e-3)",
     pytest.param("log_ramp(1e-6)", marks=pytest.mark.xfail(
         strict=True,
         reason="the Kelvin image declares no flat radius, so exterior_norm takes "
                "the default eps grid, which ends at delta = 1e-6, and reads "
                "diverging where the deep grid converges (ROADMAP item 10)"))]
    + [f"log_power({a})" for a in (0.1, 0.2, 0.3, 0.36, 0.4, 0.45, 0.49, 0.5, 0.6, 0.7, 1.0)]
    + [f"oscillating({a})" for a in (0.05, 0.1, 0.2, 0.3, 0.36, 0.4, 0.45, 0.49, 0.5, 0.6, 0.7)])


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", LIMIT_SWEEP)
def test_limits_classify_like_the_dirichlet_oracle(n, name):
    # each sample of both limits is D(eps) reached through the Hardy
    # functional.  Where the class has an origin limit the oracle is D(0, R)
    # itself, one integral that takes no eps-limit, so a misread limit shows;
    # for the log families no eps-free route gives the verdict, and the
    # oracle sums weighted_dirichlet slices on the deep grid
    p = named_profile(Dimension(n), name)
    if ORIGIN_CLASSES[p.origin_class] == "converged":
        want = LimitResult(hardy.weighted_dirichlet(p, 0.0), "converged")
    else:
        want = dirichlet_limit(p)
    for res in (hardy.cutoff_norm(p), kelvin.exterior_norm(kelvin.kelvin_map(p))):
        assert res.classification == want.classification
        if res.classification == "converged":
            assert abs(res.limit - want.limit) <= 1e-9 * abs(want.limit)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kind", ["log_power", "oscillating"])
@pytest.mark.parametrize("a", [0.05, 0.1, 0.2, 0.3, 0.36, 0.4, 0.45, 0.49, 0.5, 0.6, 0.7])
def test_log_family_limits_agree_with_the_law(n, kind, a):
    # the law takes no eps-limit, so unlike dirichlet_limit it does not share
    # the sequence classifier: members of s^a converge to it, non-members
    # diverge, and sin(s^a) is never a clean wrong number
    p = make_named(Dimension(n), kind, a=a)
    law = log_family_law(p, a)
    for res in (hardy.cutoff_norm(p), kelvin.exterior_norm(kelvin.kelvin_map(p))):
        if kind == "oscillating":
            assert res.classification != "converged" or abs(res.limit - law) <= 1e-4 * law
        elif a < 0.5:
            assert res.classification == "converged"
            assert abs(res.limit - law) <= 1e-9 * law
        else:
            assert res.classification == "diverging"


def test_oscillating_tail_against_quadosc():
    # the QAWF integral of the law's tail against mpmath's oscillatory
    # quadrature, which sums the pieces between the zeros of cos 2x
    mpmath = pytest.importorskip("mpmath")
    a = 0.4
    with mpmath.workdps(15):
        power = 1 - 1 / mpmath.mpf(a)
        cos_part = mpmath.quadosc(lambda x: x**power * mpmath.cos(2 * x), [1, mpmath.inf],
                                  omega=2)
        want = float(a / 2 * (1 / (1 / mpmath.mpf(a) - 2) + cos_part))
    assert abs(oscillating_tail(a) - want) <= 1e-9 * want


def test_log_ramp_limit_on_default_grid(dim3):
    # v = log(r)/log(delta) above delta: D(0, 1) = s_N / ln(1/delta); the
    # ramp declares its flat radius, so eps_grid gives it the deep grid, on
    # which the samples freeze below delta = 1e-6
    p = named_profile(dim3, "log_ramp(1e-6)")
    assert hardy.eps_grid(p) == DEEP_EPS_SEQUENCE
    want = dim3.surface_factor / math.log(1e6)
    assert hardy.principal_value(p).classification == "converged"
    res = hardy.cutoff_norm(p)
    assert res.classification == "converged"
    assert abs(res.limit - want) <= 1e-8 * want


@pytest.mark.xfail(strict=True, reason="the deep grid leaves two samples below "
                   "delta = 1e-100, and the classifier reads their run up to the "
                   "frozen value as diverging (ROADMAP items 1 and 10)")
def test_log_ramp_limit_below_the_deep_grid(dim3):
    # D(0, 1) = s_N / ln(1/delta) for the ramp flat below delta = 1e-100
    p = make_named(dim3, "log_ramp", delta=1e-100)
    want = dim3.surface_factor / math.log(1e100)
    res = hardy.cutoff_norm(p)
    assert res.classification == "converged"
    assert abs(res.limit - want) <= 1e-8 * want


def test_oscillating_profile_limit_exists_while_functional_oscillates(dim3):
    # D(eps, 1) only grows as eps falls, and the law bounds it: the limit
    # exists; the eps-route's verdict on it is
    # test_cutoff_norm_converges_on_log_members
    p = named_profile(dim3, "oscillating(0.3)")
    bare = hardy.principal_value(p)
    assert bare.classification == "oscillating"
    samples = hardy.cutoff_norm(p).samples
    assert len(samples) == len(DEEP_EPS_SEQUENCE)
    assert all(x < y for x, y in zip(samples, samples[1:]))
    assert samples[-1] < log_family_law(p, 0.3)


def test_norm_gap_is_singularity_energy(dim3):
    # bare limit minus regularized limit = surface energy, finite_limit class
    p = make_e1(dim3)
    pv = hardy.principal_value(p)
    cn = hardy.cutoff_norm(p)
    gap = pv.limit - cn.limit
    assert abs(gap - 2.0 * math.pi) / (2.0 * math.pi) < 1e-6


@pytest.mark.parametrize("name", LIBRARY)
def test_rayleigh_lower_bound(dim3, name):
    # the ground eigenvalue bounds every quotient on the unit ball
    p = named_profile(dim3, name)
    quotient = hardy.weighted_dirichlet(p, 0.0) / hardy.weighted_l2_sq(p)
    assert quotient >= Z01 * Z01 - 1e-6


def test_vanishing_approximants_stay_above_ground_eigenvalue(dim3):
    # cut the ground mode off at the origin: the quotient of the bare
    # functional exceeds the eigenvalue and decreases toward it
    e1 = make_e1(dim3)
    mu1 = Z01 * Z01
    prev = None
    for eps in (1e-2, 1e-4, 1e-6):
        p = approx.log_cutoff(e1, eps)
        q = hardy.annulus_functional(p, 1e-13, 1.0) / hardy.weighted_l2_sq(p)
        assert q > mu1
        if prev is not None:
            assert q < prev
        prev = q
    # the excess decays like 1/log(1/eps): slow, but strictly toward mu1
    assert prev - mu1 < 0.6


def test_weighted_dirichlet_without_verdict_raises(dim3):
    # a nan in the integrand leaves the integral without a verdict: the
    # energy raises instead of returning a bare nan
    e1 = make_e1(dim3)
    bad = replace(e1, dv=lambda r: np.where(r > 0.9, math.nan, e1.dv(r)))
    with pytest.raises(NonConvergenceError):
        hardy.weighted_dirichlet(bad, 0.0)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-12])
def test_log_ramp_dirichlet_closed_form(n, delta):
    # v' = 1/(r log delta) on (delta, 1): s_N int v'^2 r dr = s_N / log(1/delta)
    dim = Dimension(n)
    got = hardy.weighted_dirichlet(make_named(dim, "log_ramp", delta=delta), 0.0)
    want = dim.surface_factor / math.log(1.0 / delta)
    assert abs(got - want) <= 1e-14 * want


FLAT_ROUTE_PROFILES = ["bump", "annular_bump", "constant_plateau", "log_ramp(1e-3)"]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", FLAT_ROUTE_PROFILES)
def test_flat_start_matches_integral_from_the_origin(n, name):
    # second route: the same profile with no declaration, integrated down to
    # MOLLIFY_RADIUS; the log ramp's kink at delta then sits inside a panel
    # of the log variable, which costs it up to 4.4e-10 relative
    p = named_profile(Dimension(n), name)
    q = replace(p, flat_below=0.0)
    pairs = [
        (hardy.weighted_dirichlet(p, 0.0), hardy.weighted_dirichlet(q, 0.0)),
        (hardy.weighted_dirichlet(p, 1e-9, 0.5), hardy.weighted_dirichlet(q, 1e-9, 0.5)),
        (hardy.weighted_dirichlet(p, 1e-9, 1e-4), hardy.weighted_dirichlet(q, 1e-9, 1e-4)),
        (hardy.annulus_functional(p, 1e-200, method="reduced"),
         hardy.annulus_functional(q, 1e-200, method="reduced")),
        (approx.dim_reduction(p, p.support[1]), approx.dim_reduction(q, q.support[1])),
        (approx.naive_cutoff_defect(p, 1e-2), approx.naive_cutoff_defect(q, 1e-2)),
        (approx.log_cutoff_defect(p, 1e-2), approx.log_cutoff_defect(q, 1e-2)),
    ]
    for got, want in pairs:
        assert abs(got - want) <= 1e-9 * abs(want) + 1e-14, (got, want)


def test_weighted_dirichlet_is_zero_below_the_freeze(dim3):
    # no profile has features below MOLLIFY_RADIUS, where the log family is
    # frozen, so an outer radius there leaves nothing to integrate
    for name in ("e1", "log_power(0.3)", "oscillating(0.3)", "log_power(0.7)"):
        p = named_profile(dim3, name)
        for R in (MOLLIFY_RADIUS, 1e-300):
            assert hardy.weighted_dirichlet(p, 0.0, R) == 0.0


def test_breakdown_row(dim3):
    b = hardy.breakdown(make_e1(dim3), 1e-2)
    assert b.eps == 1e-2
    assert b.singularity >= 0.0
    assert abs(b.residual) < 1e-8


@pytest.mark.parametrize("name", list(CUTOFF_NORM_EVAL_BOUNDS))
def test_cutoff_norm_evaluation_budget(dim3, monkeypatch, name):
    # points, not calls: one call evaluates every initial piece, or every
    # child of a round's splits
    evals = 0
    plain = hardy.integrate

    def counting(f, *args, **kwargs):
        def counted(r):
            nonlocal evals
            evals += np.size(r)
            return f(r)

        return plain(counted, *args, **kwargs)

    monkeypatch.setattr(hardy, "integrate", counting)
    res = hardy.cutoff_norm(named_profile(dim3, name))
    assert res.classification == "converged"
    assert evals <= CUTOFF_NORM_EVAL_BOUNDS[name]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", ["e1", "bump", "log_power(0.3)"])
@pytest.mark.parametrize("grid", [DEFAULT_EPS_SEQUENCE, DEEP_EPS_SEQUENCE],
                         ids=["default", "deep"])
def test_running_sum_matches_whole_interval(n, name, grid):
    # the limits sum slices (eps_j, eps_{j-1}); the whole-interval annulus
    # functional on (eps_j, R) is the second route to every sample
    p = named_profile(Dimension(n), name)
    res = hardy.principal_value(p, eps_sequence=grid)
    assert res.dropped == []
    for eps, got in zip(grid, res.samples):
        want = hardy.annulus_functional(p, eps, method="reduced")
        assert abs(got - want) <= 1e-9 * abs(want), eps


def test_running_integral_covers_a_failed_slice():
    # the integrand raises on the slice (1e-3, 1e-2) alone: that sample is
    # dropped, and the next slice (1e-4, 1e-2) spans the gap
    def f(r):
        if 1e-3 < r.min() and r.max() < 1e-2:
            raise ArithmeticError("bad slice")
        return 2.0 * r

    slices = []

    def integral(lo, hi):
        slices.append((lo, hi))
        return integrate(f, lo, hi).value_or_raise()

    res = integrate_to_limit(hardy.running_integral(integral, 1.0), DEFAULT_EPS_SEQUENCE)
    assert [e for e, _ in res.dropped] == [1e-3]
    assert slices[2:4] == [(1e-3, 1e-2), (1e-4, 1e-2)]
    kept = [e for e in DEFAULT_EPS_SEQUENCE if e != 1e-3]
    assert res.samples == pytest.approx([1.0 - e * e for e in kept], rel=1e-14)
