"""Acceptance suite: every numbered criterion as a dedicated test, each
printing one pass/fail line with the measured value.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria execute.
"""

import math
import time

import numpy as np
import pytest

from hardylab import approx, evolution, hardy, kelvin, spectrum, wholespace
from hardylab.profiles import (
    Dimension,
    make_e1,
    make_named,
    named_profile,
)
from hardylab.quadrature import DEFAULT_EPS_SEQUENCE, integrate_to_limit
from hardylab.specfun import bessel_j, bessel_zero

from oracles import bisect, j0_series, profile_from_u, scaled

DIM3 = Dimension(3)
DIM4 = Dimension(4)
MU1_INTERNAL = 5.783185962946785

LIBRARY3 = ["e1", "bump", "annular_bump", "constant_plateau",
            "log_power(0.3)", "oscillating(0.3)", "subcritical(0.1)"]


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {label}: {status}  {detail}")


def test_criterion_01_ground_eigenvalue():
    z_oracle = bisect(j0_series, 2.0, 3.0, 1e-15)
    mode = spectrum.eigenmode(DIM3, 1)
    err = abs(mode.eigenvalue - z_oracle**2)
    printed = round(mode.zero, 2) ** 2
    ok = err <= 1e-9 and abs(mode.eigenvalue - MU1_INTERNAL) <= 1e-9 \
        and abs(printed - 5.76) <= 1e-12
    _report(1, "ground eigenvalue vs bisection oracle", ok,
            f"mu_1={mode.eigenvalue:.15f} err={err:.2e} rounded={printed:.2f}")
    assert ok


def test_criterion_02_decomposition():
    worst = 0.0
    for name in LIBRARY3:
        p = named_profile(DIM3, name)
        for eps in DEFAULT_EPS_SEQUENCE:
            b = hardy.breakdown(p, eps)
            worst = max(worst, abs(b.residual) / (1.0 + abs(b.annulus)))
    ok = worst <= 1e-7
    _report(2, "annulus = dirichlet + surface energy", ok, f"worst={worst:.2e}")
    assert ok


def test_criterion_03_singularity_energy_limit():
    worst = 0.0
    for dim, want in ((DIM3, 2.0 * math.pi), (DIM4, 2.0 * math.pi**2)):
        for maker in (make_e1, lambda d: make_named(d, "bump")):
            p = maker(dim)
            limit = hardy.singularity_energy(p, 0.0)
            assert abs(limit - want * p.v(0.0) ** 2) < 1e-12
            got = hardy.singularity_energy(p, 1e-8)
            worst = max(worst, abs(got - limit) / limit)
    ok = worst <= 1e-5
    _report(3, "surface energy limit N(N-2)/2 omega_N v(0)^2", ok,
            f"worst rel={worst:.2e}")
    assert ok


def test_criterion_04_norm_gap_and_rayleigh():
    p = make_e1(DIM3)
    pv = hardy.principal_value(p)
    cn = hardy.cutoff_norm(p)
    gap = pv.limit - cn.limit
    hs = hardy.singularity_energy(p, 1e-9)
    rel = abs(gap - hs) / hs
    ray = spectrum.rayleigh(p)
    ray_err = abs(ray - MU1_INTERNAL)
    ok = rel <= 1e-5 and ray_err <= 1e-8
    _report(4, "norm gap equals surface energy; Rayleigh = mu_1", ok,
            f"gap rel={rel:.2e} rayleigh err={ray_err:.2e}")
    assert ok


def _criterion_05_checks(name, want):
    """[bare functional's class is want, annulus - surface = D along the grid]"""
    p = named_profile(DIM3, name)
    worst = 0.0
    for eps in DEFAULT_EPS_SEQUENCE:
        lhs = hardy.annulus_functional(p, eps) - hardy.singularity_energy(p, eps)
        rhs = hardy.weighted_dirichlet(p, eps)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    return [hardy.principal_value(p).classification == want, worst <= 1e-4]


def test_criterion_05_oscillating_and_divergent_classes():
    # every check on log_power(0.3); on oscillating(0.3) all but the
    # regularized limit, which is test_criterion_05_oscillating_regularized_limit
    reg = hardy.cutoff_norm(named_profile(DIM3, "log_power(0.3)"))
    results = (_criterion_05_checks("log_power(0.3)", "diverging")
               + [reg.classification == "converged"]
               + _criterion_05_checks("oscillating(0.3)", "oscillating"))
    ok = all(results)
    _report(5, "bare functional oscillates/diverges, regularized converges", ok,
            f"checks={results}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="between eps = 1e-1 and 1e-250, s^0.3 (s = ln(1/eps)) runs from 1.28 "
           "to 6.73, less than one period of sin, so no converged verdict on "
           "these samples would be true; the limit needs the law route "
           "(ROADMAP item 18)")
def test_criterion_05_oscillating_regularized_limit():
    ok = hardy.cutoff_norm(named_profile(DIM3, "oscillating(0.3)")).classification \
        == "converged"
    _report(5, "regularized limit of oscillating(0.3) converges", ok)
    assert ok


def test_criterion_06_cutoff_defects():
    p = make_named(DIM3, "bump")
    lim = approx.naive_cutoff_limit(p)
    naive = approx.naive_cutoff_defect(p, 1e-4)
    naive_ok = abs(naive / lim - 1.0) <= 1e-2
    cs = [approx.log_cutoff_defect(p, e) * math.log(1.0 / e)
          for e in (1e-2, 1e-3, 1e-4)]
    stable = (max(cs) - min(cs)) / min(cs) <= 0.2
    bounded = all(approx.log_cutoff_defect(p, e) <= max(cs) / math.log(1.0 / e) + 1e-12
                  for e in (1e-2, 1e-3, 1e-4))
    ok = naive_ok and stable and bounded
    _report(6, "naive defect matches limit; log defect ~ C/log(1/eps)", ok,
            f"naive rel={abs(naive/lim-1):.2e} C spread={(max(cs)-min(cs))/min(cs):.2e}")
    assert ok


def test_criterion_07_inversion_identities():
    p = make_e1(DIM3)
    worst_i, worst_l = 0.0, 0.0
    for eps in (1e-2, 1e-3):
        chk = kelvin.identity_check(p, eps)
        worst_i = max(worst_i, abs(chk.defect))
        worst_l = max(worst_l, abs(chk.surface_defect))
    ok = worst_i <= 1e-7 and worst_l <= 1e-10
    _report(7, "inversion identities (interior vs exterior)", ok,
            f"functional defect={worst_i:.2e} surface defect={worst_l:.2e}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the stated target value mixes two normalizations of the ground-mode "
           "image: with any single normalization the truncated exterior "
           "functional is positive in dimension 3 (it turns negative only for "
           "N >= 4, or in N = 3 for slow profiles such as a logarithmic ramp)")
def test_criterion_07_exterior_value_sign_claim():
    # unit weighted-L2 normalization is the reading most favorable to the
    # claimed value mu_1 - 2 pi ~ -0.5000
    p = make_e1(DIM3)
    scale = 1.0 / math.sqrt(hardy.weighted_l2_sq(p))
    q = kelvin.kelvin_map(scaled(p, scale))
    val = kelvin.exterior_functional(q, 4.0e4)
    target = MU1_INTERNAL - 2.0 * math.pi
    ok = abs(val - target) <= 1e-3 and val < 0.0
    _report(7, "exterior functional of the ground-mode image (stated value)", ok,
            f"value={val:+.6f} target={target:+.6f}")
    assert ok


def test_criterion_07_hidden_energy_consistency():
    # the consistent version of the same experiment: the truncated exterior
    # functional equals cutoff norm minus surface energy (to 1e-5), and the
    # hidden term does dominate where the arithmetic says it must
    p3 = make_e1(DIM3)
    q3 = kelvin.kelvin_map(p3)
    val3 = kelvin.exterior_functional(q3, 4.0e4)
    want3 = hardy.cutoff_norm(p3).limit - DIM3.hs_constant
    p4 = make_e1(DIM4)
    q4 = kelvin.kelvin_map(p4)
    val4 = kelvin.exterior_functional(q4, 2.0e4)
    want4 = hardy.cutoff_norm(p4).limit - DIM4.hs_constant
    ok = abs(val3 - want3) <= 1e-5 and abs(val4 - want4) <= 1e-4 and val4 < 0.0
    _report(7, "exterior functional identity and sign (consistent form)", ok,
            f"N=3: {val3:+.6f}  N=4: {val4:+.6f}")
    assert ok


def test_criterion_08_evolution():
    t0 = time.monotonic()
    p = make_e1(DIM3)
    grid = evolution.FDGrid(m=512, dt=1e-4, theta=0.5)
    run = evolution.FDRun(p, grid, 0.1)
    r = grid.nodes
    v_fd = run.state(0.1)
    exact = math.exp(-MU1_INTERNAL * 0.1) * np.array(
        [bessel_j(0.0, bessel_zero(0.0, 1) * rj) for rj in r])
    exact[-1] = 0.0
    dist = math.sqrt(DIM3.surface_factor * grid.h * float(np.sum((v_fd - exact) ** 2 * r)))

    worst_law = 0.0
    for row in evolution.energy_trace(run, [0.02, 0.05, 0.08]):
        worst_law = max(worst_law, abs(row.dEdt_est - row.minus_twice_dirichlet)
                        / abs(row.minus_twice_dirichlet))

    modes = [spectrum.eigenmode(DIM3, k) for k in (1, 2, 3)]
    f0 = spectrum.SpectralField(modes, np.array([1.0, 0.4, -0.2]))
    e_a = evolution.evolve_spectral(f0, 2.0).norm_sq()
    e_b = evolution.evolve_spectral(f0, 2.5).norm_sq()
    slope = (math.log(e_b) - math.log(e_a)) / 0.5 / 2.0
    slope_err = abs(-slope - MU1_INTERNAL)
    elapsed = time.monotonic() - t0
    ok = dist <= 1e-4 and worst_law <= 1e-3 and slope_err <= 1e-3 and elapsed <= 30.0
    _report(8, "evolution: solver agreement, energy law, decay slope", ok,
            f"L2 dist={dist:.2e} law={worst_law:.2e} slope err={slope_err:.2e} "
            f"runtime={elapsed:.1f}s")
    assert ok


def _wide_bump(dim, plateau, hi):
    return wholespace.bessel_weighted(make_named(dim, "bump", fall=(plateau, hi)))


def test_criterion_09_hardy_poincare():
    worst = 0.0
    margins = []
    for plateau, hi in ((0.5, 3.0), (1.0, 5.0), (2.0, 9.0)):
        res = wholespace.hardy_poincare_check(_wide_bump(DIM3, plateau, hi))
        worst = max(worst, res.defect)
        margins.append(res.margin)
    quots = {n: wholespace.infimum_sequence(n) for n in (8, 16, 32, 64)}
    ok = worst <= 1e-7 and all(m > 0 for m in margins) \
        and all(v > 0 for v in quots.values()) and quots[64] < 0.05
    _report(9, "improvement by the L2 norm; vanishing infimum", ok,
            f"defect={worst:.2e} quotient(64)={quots[64]:.4f}")
    assert ok


def test_criterion_10_zero_circle_energies():
    p = _wide_bump(DIM3, 2.0, 9.0)
    signs_ok = True
    for m in (1, 2):
        lp, lm = wholespace.zero_singularity_energies(p, m, 1e-3)
        signs_ok = signs_ok and lp >= 0.0 and -lm >= 0.0

    z1 = bessel_zero(0.0, 1)
    a = 0.25
    u = lambda r: abs(r - z1) ** a * math.exp(-4.0 * (r - z1) ** 2)
    du = lambda r, h=1e-9: (u(r + h) - u(r - h)) / (2.0 * h)
    bad = profile_from_u(DIM3, u, du, (z1 - 1.0, z1 + 1.0))
    res = integrate_to_limit(
        lambda e: wholespace.zero_singularity_energies(bad, 1, e)[0],
        (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7))
    ok = signs_ok and res.classification == "diverging"
    _report(10, "one-sided zero-circle energies: signs and 1/4-rate blowup", ok,
            f"signs={signs_ok} trace class={res.classification}")
    assert ok


def test_criterion_11_dimension_reduction():
    from hardylab.profiles import RadialProfile

    worst = 0.0
    r_spread = 0.0
    for n in (3, 4, 5):
        dim = Dimension(n)
        ratios = []
        for radius in (1.0, 7.0):
            base = make_named(dim, "bump", fall=(0.4 * radius, 0.8 * radius))
            p = RadialProfile(dim=dim, v=base.v, dv=base.dv, support=(0.0, radius),
                              origin_class="finite_limit")
            ratio = approx.dim_reduction(p, radius)
            ratios.append(ratio)
            worst = max(worst, abs(ratio - 1.0 / (n - 2)))
        r_spread = max(r_spread, abs(ratios[0] - ratios[1]))
    ok = worst <= 1e-7 and r_spread <= 1e-8
    _report(11, "squared-norm ratio 1/(N-2), radius independent", ok,
            f"worst={worst:.2e} radius spread={r_spread:.2e}")
    assert ok


def test_criterion_12_subcritical_limit():
    c_star = DIM3.critical_coefficient
    cs = [0.0, 0.1, 0.2, 0.24, 0.249, 0.2499, c_star - 1e-6, c_star - 1e-8]
    vals = [v for _, v in spectrum.subcritical_limit(DIM3, cs)]
    monotone = all(a > b for a, b in zip(vals, vals[1:]))
    gap = vals[-1] - MU1_INTERNAL
    ok = monotone and 0.0 < gap <= 1e-3
    _report(12, "subcritical eigenvalues decrease to mu_1", ok,
            f"monotone={monotone} final gap={gap:.2e}")
    assert ok
