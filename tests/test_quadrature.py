import math

import pytest

from hardylab.quadrature import (
    DEEP_EPS_SEQUENCE,
    DEFAULT_EPS_SEQUENCE,
    InsufficientSamplesError,
    QuadConfig,
    QuadResult,
    classify_sequence,
    integrate,
    integrate_to_limit,
)
from hardylab.specfun import bessel_j

from oracles import Z01, simpson


def test_linear_integrand():
    value, err = integrate(lambda r: r, 0.0, 1.0)
    assert abs(value - 0.5) < 1e-12
    assert err < 1e-10


def test_bessel_orthonormalization_integral():
    # \int_0^1 J_0(z r)^2 r dr = J_1(z)^2 / 2 at the first zero
    res = integrate(lambda r: bessel_j(0.0, Z01 * r) ** 2 * r, 0.0, 1.0)
    closed = 0.13475706197095838  # J_1(z)^2/2, frozen from the series oracle
    assert abs(res.value - closed) < 1e-11
    check = simpson(lambda r: j0sq(r), 0.0, 1.0, 4096)
    assert abs(res.value - check) < 1e-9


def j0sq(r):
    return bessel_j(0.0, Z01 * r) ** 2 * r


def test_log_singularity_left():
    res = integrate(lambda r: math.log(1.0 / r), 0.0, 1.0, singular_end="left")
    assert abs(res.value - 1.0) < 1e-10
    assert res.converged


def test_inverse_sqrt_right_endpoint():
    # the untruncatable tail below one float spacing of the endpoint carries
    # mass ~ sqrt(ulp), which floors the achievable accuracy near 1.5e-8
    res = integrate(lambda r: 1.0 / math.sqrt(1.0 - r), 0.0, 1.0, singular_end="right")
    assert abs(res.value - 2.0) < 5e-8


def test_additivity():
    f = lambda r: math.sin(3.0 * r) + 1.0 / math.sqrt(r + 1e-6)
    whole = integrate(f, 0.0, 1.0, singular_end="left").value
    left = integrate(f, 0.0, 0.37, singular_end="left").value
    right = integrate(f, 0.37, 1.0).value
    assert abs(whole - (left + right)) < 2e-10


def test_depth_doubling_invariance():
    cfg1 = QuadConfig(max_depth=24)
    cfg2 = QuadConfig(max_depth=48)
    f = lambda r: math.log(1.0 / r) ** 2
    v1 = integrate(f, 0.0, 1.0, cfg1, singular_end="left").value
    v2 = integrate(f, 0.0, 1.0, cfg2, singular_end="left").value
    assert abs(v1 - v2) < 1e-10


def test_result_unpacks_as_pair():
    value, err = integrate(lambda r: r * r, 0.0, 1.0)
    assert isinstance(value, float) and isinstance(err, float)
    res = QuadResult(1.0, 0.0)
    assert tuple(res) == (1.0, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=-1.0)
    with pytest.raises(ValueError):
        QuadConfig(max_depth=5)


def test_limit_converging():
    res = integrate_to_limit(lambda e: 1.0 + e, DEFAULT_EPS_SEQUENCE)
    assert res.classification == "converged"
    assert abs(res.limit - 1.0) < 1e-9


def test_limit_oscillating():
    res = integrate_to_limit(lambda e: math.sin(math.log(1.0 / e)), DEFAULT_EPS_SEQUENCE)
    assert res.classification == "oscillating"


def test_limit_diverging():
    res = integrate_to_limit(lambda e: math.log(1.0 / e), DEFAULT_EPS_SEQUENCE)
    assert res.classification == "diverging"


def test_limit_unpacks_as_pair():
    limit, cls = integrate_to_limit(lambda e: 2.0 - e * e, DEFAULT_EPS_SEQUENCE)
    assert cls == "converged"
    assert abs(limit - 2.0) < 1e-9


def test_limit_requires_four_samples():
    with pytest.raises(ValueError):
        integrate_to_limit(lambda e: e, [0.1, 0.01, 0.001])

    def flaky(e):
        if e < 0.05:
            raise ArithmeticError("boom")
        return e

    with pytest.raises(InsufficientSamplesError):
        integrate_to_limit(flaky, DEFAULT_EPS_SEQUENCE)


def test_deep_sequence_separates_slow_log_growth():
    # powers of log(1/eps) are invisible on an arithmetic exponent grid but
    # unmistakable on the geometric one
    grow = lambda e: math.log(1.0 / e) ** 0.6
    res = integrate_to_limit(grow, DEEP_EPS_SEQUENCE)
    assert res.classification == "diverging"
    settle = lambda e: 3.0 - math.log(1.0 / e) ** -0.4
    res = integrate_to_limit(settle, DEEP_EPS_SEQUENCE)
    assert res.classification == "converged"
    assert abs(res.limit - 3.0) < 5e-3


def test_classify_sequence_flat():
    cls, limit = classify_sequence([2.0, 2.0, 2.0, 2.0, 2.0])
    assert cls == "converged" and limit == 2.0


def test_non_integrable_pole_flagged():
    res = integrate(lambda r: 1.0 / r ** 1.5, 0.0, 1.0,
                    QuadConfig(max_depth=30), singular_end="left")
    assert not res.converged


def test_nan_on_subinterval_is_not_converged():
    res = integrate(lambda r: math.nan if 0.3 < r < 0.4 else r, 0.0, 1.0)
    assert res.converged is False


def test_raising_integrand_is_not_converged():
    def f(r):
        if r > 0.5:
            raise ZeroDivisionError("pole")
        return r

    res = integrate(f, 0.0, 1.0)
    assert res.converged is False


def test_value_error_from_integrand_propagates():
    def bad(r):
        raise ValueError("outside the domain")

    with pytest.raises(ValueError):
        integrate(bad, 0.0, 1.0)
