import math

import numpy as np
import pytest

from hardylab import hardy, spectrum
from hardylab.profiles import make_e1, make_mode, make_named, make_subcritical, named_profile
from hardylab.quadrature import NonConvergenceError
from hardylab.specfun import bessel_j, bessel_zero

from oracles import Z01, Z02, Z11, subcritical_rayleigh_quadrature

MU1 = Z01 * Z01


def test_first_mode(dim3):
    m = spectrum.eigenmode(dim3, 1)
    assert abs(m.eigenvalue - 5.783185962946785) < 1e-12
    assert round(m.zero, 2) ** 2 == pytest.approx(5.76, abs=1e-12)


def test_second_mode(dim3):
    m = spectrum.eigenmode(dim3, 2)
    assert abs(m.zero - Z02) < 1e-12
    assert abs(m.eigenvalue - 30.471262343662087) < 1e-9


def test_modes_vanish_at_boundary(dim3):
    for k in (1, 2, 5):
        p = make_mode(dim3, k)
        assert abs(p.v(1.0)) < 1e-11


def test_eigen_equation_residual(dim3):
    # regular-part equation v'' + v'/r + mu v = 0 with v = J_0(z r):
    # v'' = z^2 (J_1(zr)/(zr) - J_0(zr))
    for k in (1, 2, 3):
        m = spectrum.eigenmode(dim3, k)
        z = m.zero
        for r in np.linspace(0.05, 0.95, 31):
            j0 = bessel_j(0.0, z * r)
            j1 = bessel_j(1.0, z * r)
            d2 = z * z * (j1 / (z * r) - j0)
            d1 = -z * j1
            residual = d2 + d1 / r + m.eigenvalue * j0
            assert abs(residual) < 1e-8


def test_mode_norm2_closed_form(dim3):
    m = spectrum.eigenmode(dim3, 1)
    closed = dim3.surface_factor * 0.13475706197095838  # J_1(z)^2/2
    assert abs(m.norm2 - closed) < 1e-12


def test_rayleigh_of_modes(dim3):
    assert abs(spectrum.rayleigh(make_e1(dim3)) - MU1) < 1e-8
    assert abs(spectrum.rayleigh(make_mode(dim3, 2)) - Z02 * Z02) < 1e-7


def test_rayleigh_of_bump_exceeds_minimum(dim3):
    assert spectrum.rayleigh(make_named(dim3, "bump")) > MU1


def test_rayleigh_without_a_limit_raises(dim3):
    # log_power(0.6) lies outside the weighted Dirichlet space: its cutoff
    # norm diverges, and the quotient has no value
    with pytest.raises(NonConvergenceError, match="diverging"):
        spectrum.rayleigh(named_profile(dim3, "log_power(0.6)"))


def test_mode_indices_and_counts_are_whole_numbers(dim3):
    # eigenmode(dim, 1.5) failed to bracket a zero, and expand(p, 2.5) raised
    # a TypeError from range: both refuse the argument by name
    with pytest.raises(ValueError, match="zero index must be a whole number, got k=1.5"):
        spectrum.eigenmode(dim3, 1.5)
    with pytest.raises(ValueError, match="mode count must be a whole number, got K=2.5"):
        spectrum.expand(make_e1(dim3), 2.5)


def test_expand_failure_names_its_interval(dim3):
    # the first coefficient of oscillating(50) does not converge on (0, 1)
    with pytest.raises(NonConvergenceError, match=r"did not converge on \(0, 1\)"):
        spectrum.expand(named_profile(dim3, "oscillating(50)"), 40)


def test_expand_ground_mode(dim3):
    f = spectrum.expand(make_e1(dim3), 5)
    assert abs(f.coeffs[0] - 1.0) < 1e-8
    assert max(abs(c) for c in f.coeffs[1:]) < 1e-8


def test_expand_zero_profile(dim3):
    zero = make_named(dim3, "bump", height=0.0)
    f = spectrum.expand(zero, 4)
    assert np.all(f.coeffs == 0.0)


def test_parseval_defect_nonnegative_and_decreasing(dim3):
    p = make_named(dim3, "bump")
    total = hardy.weighted_l2_sq(p)
    prev = None
    for K in (4, 8, 16):
        f = spectrum.expand(p, K)
        defect = total - f.norm_sq()
        assert defect > -1e-10
        if prev is not None:
            assert defect <= prev + 1e-12
        prev = defect
    assert prev < 1e-4 * total


def test_orthonormality_matrix(dim3):
    K = 6
    worst = 0.0
    for i in range(1, K + 1):
        f = spectrum.expand(make_mode(dim3, i), K)
        for j, c in enumerate(f.coeffs, start=1):
            want = 1.0 if i == j else 0.0
            worst = max(worst, abs(c - want))
    assert worst < 1e-8


def test_mode_norm_gap_is_surface_energy(dim3):
    # every mode has unit plateau value, so bare-limit minus regularized
    # limit is the same constant N(N-2)/2 omega_N
    for k in (1, 2, 3):
        p = make_mode(dim3, k)
        pv = hardy.principal_value(p)
        cn = hardy.cutoff_norm(p)
        assert pv.classification == "converged" and cn.classification == "converged"
        assert abs((pv.limit - cn.limit) - dim3.hs_constant) < 1e-6


def test_subcritical_limit_monotone(dim3):
    c_star = dim3.critical_coefficient
    cs = [0.0, 0.1, 0.2, 0.24, 0.2499, c_star - 1e-8]
    out = spectrum.subcritical_limit(dim3, cs)
    vals = [v for _, v in out]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > MU1
    assert vals[-1] - MU1 < 1e-3


def test_subcritical_limit_near_critical(dim3):
    c_star = dim3.critical_coefficient
    (_, val), = spectrum.subcritical_limit(dim3, [c_star - 1e-12])
    assert abs(val - MU1) < 1e-4


def test_subcritical_c_zero_dimension_four(dim4):
    # m = (N-2)/2 = 1: the first zero of J_1
    (_, val), = spectrum.subcritical_limit(dim4, [0.0])
    assert abs(val - Z11 * Z11) < 1e-9
    assert abs(val - 14.681970642124488) < 1e-9


def test_subcritical_quadrature_cross_check(dim3, dim4):
    # the zero-finder route must agree with the quadrature Rayleigh quotient
    for dim, c in ((dim3, 0.0), (dim3, 0.12), (dim4, 0.5)):
        m = math.sqrt(dim.critical_coefficient - c)
        z = bessel_zero(m, 1)
        quad = subcritical_rayleigh_quadrature(make_subcritical(dim, c), m)
        assert abs(quad - z * z) < 1e-7 * z * z


def test_spectral_field_parseval(dim3):
    modes = [spectrum.eigenmode(dim3, k) for k in (1, 2, 3)]
    f = spectrum.SpectralField(modes, np.array([1.0, -0.5, 0.25]))
    direct = sum(c * c * m.norm2 for c, m in zip(f.coeffs, modes))
    assert abs(f.norm_sq() - direct) < 1e-14
    p = f.profile()
    assert abs(hardy.weighted_l2_sq(p) - f.norm_sq()) < 1e-8


def test_spectral_field_needs_a_mode():
    with pytest.raises(ValueError, match="needs at least one mode"):
        spectrum.SpectralField([], [])


def test_spectral_field_modes_share_one_dimension(dim3, dim4):
    modes = [spectrum.eigenmode(dim3, 1), spectrum.eigenmode(dim4, 1)]
    with pytest.raises(ValueError, match=r"share one dimension, got N = \[3, 4\]"):
        spectrum.SpectralField(modes, [1.0, 1.0])
