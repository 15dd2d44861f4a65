import math

import numpy as np
import pytest

from hardylab import specfun
from hardylab.specfun import BesselError, bessel_j, bessel_zero

from oracles import Z01, Z02, Z11, bisect, j0_series


def test_j0_at_origin():
    assert bessel_j(0.0, 0.0) == 1.0


def test_j1_at_origin():
    assert bessel_j(1.0, 0.0) == 0.0


def test_j0_vanishes_at_first_zero():
    # zero located by bisection on the series oracle
    z = bisect(j0_series, 2.0, 3.0, 1e-15)
    assert abs(z - Z01) < 5e-15
    assert abs(bessel_j(0.0, z)) < 1e-12


@pytest.mark.parametrize("nu", [0.0, 1.0, 0.5, math.sqrt(0.5), 2.3])
def test_scalar_forms_match_the_array(nu):
    # one path for every form of x: a Python float, a numpy scalar and a 0-d
    # array each give the bits of the matching element of the 1-d result
    x = np.concatenate([[0.0, 1e-300, 1e-8], np.linspace(0.3, 40.0, 37)])
    whole = bessel_j(nu, x)
    for xi, want in zip(x, whole):
        for form in (float(xi), np.float64(xi), np.array(xi)):
            got = bessel_j(nu, form)
            assert type(got) is float
            assert got == want and np.signbit(got) == np.signbit(want)


@pytest.mark.parametrize("nu", [0.0, 1.0, math.sqrt(0.5), 0.05])
def test_zeros_are_python_floats(nu):
    for k in (1, 2, 7):
        assert type(bessel_zero(nu, k)) is float


def test_first_zero_value():
    assert abs(bessel_zero(0.0, 1) - Z01) < 1e-12


def test_first_eigenvalue_printed_rounding():
    # the squared zero is 5.7832; printed as 5.76 it is round(z, 2)^2
    z = bessel_zero(0.0, 1)
    assert abs(z * z - 5.783185962946785) < 1e-12
    assert round(z, 2) ** 2 == pytest.approx(5.76, abs=1e-12)


def test_zero_interlacing():
    assert bessel_zero(0.0, 1) < bessel_zero(1.0, 1) < bessel_zero(0.0, 2)


def test_second_zero():
    assert abs(bessel_zero(0.0, 2) - Z02) < 1e-12


def test_first_zero_of_j1():
    assert abs(bessel_zero(1.0, 1) - Z11) < 1e-12


def test_half_order_zeros_are_multiples_of_pi():
    # J_{1/2}(x) is proportional to sin(x)/sqrt(x)
    for k in (1, 2, 3, 4):
        assert abs(bessel_zero(0.5, k) - k * math.pi) < 1e-12


# sqrt(1/2) and sqrt(0.13) are subcritical orders sqrt(c* - c): c = 1/2 in
# N = 4, c = 0.12 in N = 3
IRRATIONAL_ORDERS = [math.sqrt(0.5), math.sqrt(0.13)]


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.7] + IRRATIONAL_ORDERS)
def test_zeros_are_zeros(nu):
    for k in range(1, 6):
        z = bessel_zero(nu, k)
        assert abs(bessel_j(nu, z)) < 1e-11


#: orders whose first zeros lie far below McMahon's estimate, from 33.39 on:
#: their zero indices k < nu are bracketed by counting sign changes
LARGE_ORDERS = [33.5, 50.0, 100.0, 169.5]


@pytest.mark.parametrize("nu", IRRATIONAL_ORDERS + LARGE_ORDERS)
def test_irrational_order_zeros_against_mpmath(nu):
    mpmath = pytest.importorskip("mpmath")
    for k in range(1, 6):
        assert abs(bessel_zero(nu, k) - float(mpmath.besseljzero(nu, k))) < 1e-12


def test_counting_bracket_takes_a_zero_on_a_step_once(monkeypatch):
    # a kernel whose zeros lie exactly on the steps nu + 2, nu + 5 and
    # nu + 8: each is counted once and returned exactly, and a fourth zero
    # is not found
    monkeypatch.setattr(specfun, "_jv",
                        lambda nu, x: (x - nu - 2.0) * (x - nu - 5.0) * (x - nu - 8.0))
    uncached = bessel_zero.__wrapped__
    assert [uncached(10.0, k) for k in (1, 2, 3)] == [12.0, 15.0, 18.0]
    with pytest.raises(BesselError, match="could not bracket zero 4"):
        uncached(10.0, 4)


def test_first_zero_increasing_in_order():
    orders = [0.0, 0.25, 0.5, 0.8, 1.0, 1.4, 1.7, 2.0]
    zeros = [bessel_zero(nu, 1) for nu in orders]
    assert all(a < b for a, b in zip(zeros, zeros[1:]))


def test_ode_residual():
    # J_0'' + J_0'/x + J_0 = 0; J_0'' = -J_1' = J_1/x - J_0
    for x in np.linspace(0.05, 30.0, 173):
        j0 = bessel_j(0.0, x)
        j1 = bessel_j(1.0, x)
        d2 = j1 / x - j0
        residual = d2 + (-j1) / x + j0
        assert abs(residual) < 1e-9


def test_half_order_closed_form():
    for x in (0.7, 2.1, 6.3, 19.0, 42.0):
        exact = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert abs(bessel_j(0.5, x) - exact) < 1e-12


def test_array_input():
    x = np.linspace(0.0, 20.0, 41)
    vals = bessel_j(0.0, x)
    assert vals.shape == x.shape
    assert vals[0] == 1.0


def test_domain_errors():
    with pytest.raises(BesselError):
        bessel_j(-0.5, 1.0)
    with pytest.raises(BesselError, match="not finite"):
        bessel_zero(0.0, 10**300)
    with pytest.raises(BesselError):
        bessel_j(0.0, -1.0)
    with pytest.raises(BesselError):
        bessel_j(0.0, np.array([1.0, -1.0]))
    with pytest.raises(BesselError):
        bessel_zero(0.0, 0)


@pytest.mark.parametrize("k", [1.5, 2.0, math.nan])
def test_zero_index_must_be_a_whole_number(k):
    # zero 1.5 of J_0 was searched for, and failed as "could not bracket";
    # the index is refused by name, and the cache the tracer reads stays
    with pytest.raises(BesselError, match=r"zero index must be a whole number, got k="):
        bessel_zero(0.0, k)
    assert bessel_zero.cache_info().maxsize == 4096


def test_against_mpmath_reference():
    # independent route: mpmath's own series and asymptotics, not scipy
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for nu in (0.0, 0.5, 1.0, 1.7, 2.3):
        for x in np.linspace(0.01, 50.0, 400):
            x = float(x)
            worst = max(worst, abs(bessel_j(nu, x) - float(mpmath.besselj(nu, x))))
    assert worst < 5e-13


@pytest.mark.parametrize("nu", [0.0, 1.0])
def test_orders_zero_and_one_against_mpmath(nu):
    # orders 0 and 1 take scipy's j0/j1 kernels, not jv: checked on both
    # paths at tiny arguments and astride the first five zeros of J_0
    mpmath = pytest.importorskip("mpmath")
    zeros = [float(mpmath.besseljzero(0, k)) for k in range(1, 6)]
    x = np.array([0.0, 1e-300, 1e-150, 1e-20, 1e-8, 0.3, 1.0, 7.5, 40.0, 1e3]
                 + [z + d for z in zeros for d in (-1e-6, 0.0, 1e-6)])
    with mpmath.workdps(40):
        want = np.array([float(mpmath.besselj(nu, mpmath.mpf(xi))) for xi in x])
    assert np.max(np.abs(bessel_j(nu, x) - want)) <= 1e-15
    assert max(abs(bessel_j(nu, float(xi)) - w) for xi, w in zip(x, want)) <= 1e-15
    with pytest.raises(BesselError):
        bessel_j(nu, np.array([1.0, -1.0]))
