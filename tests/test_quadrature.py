import math

import numpy as np
import pytest

from hardylab import approx, hardy, quadrature
from hardylab.profiles import MOLLIFY_RADIUS, make_e1, named_profile
from hardylab.quadrature import (
    DEEP_EPS_SEQUENCE,
    DEFAULT_EPS_SEQUENCE,
    InsufficientSamplesError,
    LimitResult,
    NonConvergenceError,
    QuadResult,
    classify_sequence,
    integrate,
    integrate_to_limit,
)
from hardylab.specfun import bessel_j

from oracles import GK21_RULE, Z01, scalar_gk21, simpson


def test_linear_integrand():
    res = integrate(lambda r: r, 0.0, 1.0)
    assert abs(res.value - 0.5) < 1e-12
    assert res.err_est < 1e-10
    assert res.converged


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
    res = integrate(lambda r: np.log(1.0 / r), 0.0, 1.0, singular_end="left")
    assert abs(res.value - 1.0) < 1e-10
    assert res.converged


def test_inverse_sqrt_right_endpoint():
    # the untruncatable tail below one float spacing of the endpoint carries
    # mass ~ sqrt(ulp), which floors the achievable accuracy near 1.5e-8
    res = integrate(lambda r: 1.0 / np.sqrt(1.0 - r), 0.0, 1.0, singular_end="right")
    assert abs(res.value - 2.0) < 5e-8


def test_inverse_sqrt_right_endpoint_is_honest():
    # the split guard stops short of the endpoint: the result either admits
    # that it did not converge or its error estimate covers the true error
    res = integrate(lambda r: 1.0 / np.sqrt(1.0 - r), 0.0, 1.0, singular_end="right")
    assert not res.converged or abs(res.value - 2.0) <= res.err_est


def test_error_estimate_covers_kinks_inside_a_panel(dim3):
    # e1 minus its log cutoff has derivative kinks at eps^2 and eps; one
    # integral across both must still bound its true error, measured against
    # log_cutoff_defect, which splits at the kinks.  It starts at
    # MOLLIFY_RADIUS, as every integral of a profile from the origin does:
    # the 52 levels graded toward 0 stop short of eps^2 and never see the
    # difference, a clean-looking 0.0
    e1 = make_e1(dim3)
    cut = approx.log_cutoff(e1, 1e-25)
    res = integrate(lambda r: ((e1.dv(r) - cut.dv(r)) * np.sqrt(r)) ** 2,
                    MOLLIFY_RADIUS, 1.0, singular_end="left")
    want = approx.log_cutoff_defect(e1, 1e-25) / dim3.surface_factor
    assert res.converged
    assert abs(res.value - want) <= res.err_est


def test_gauss_kronrod_table():
    x = quadrature._GK_NODES
    wk, wg = quadrature._GK_WEIGHTS, quadrature._G_WEIGHTS
    gauss = wg != 0.0
    xg, wgl = np.polynomial.legendre.leggauss(10)
    assert np.max(np.abs(x[gauss] - xg)) <= 1e-15
    assert np.max(np.abs(wg[gauss] - wgl)) <= 1e-15
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(wk @ x**k - exact) <= 1e-15, k
        if k <= 19:
            assert abs(wg @ x**k - exact) <= 1e-15, k
    # the scalar oracle evaluates the same rule
    assert sorted(GK21_RULE) == sorted(zip(x.tolist(), wk.tolist(), wg.tolist()))


def test_additivity():
    f = lambda r: np.sin(3.0 * r) + 1.0 / np.sqrt(r + 1e-6)
    whole = integrate(f, 0.0, 1.0, singular_end="left").value
    left = integrate(f, 0.0, 0.37, singular_end="left").value
    right = integrate(f, 0.37, 1.0).value
    assert abs(whole - (left + right)) < 2e-10


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


def test_classify_sequence_flat_with_rounding_jitter():
    # last differences +1 ulp and -1 ulp: noise, not an oscillation
    x = 6.586380055915649
    cls, limit = classify_sequence(
        [0.0, 0.0, 0.0, 0.0, 0.0, 4.036757398242, x, x + 8.881784197001252e-16, x])
    assert cls == "converged" and limit == x


def test_fast_growth_with_small_early_steps_diverges():
    # the first steps of e^-3 lie within rel_tol of its largest value and
    # count as zero; they must not break the monotone run
    res = integrate_to_limit(lambda e: e ** -3, DEFAULT_EPS_SEQUENCE)
    assert res.classification == "diverging"
    res = integrate_to_limit(lambda e: e ** -0.1, DEEP_EPS_SEQUENCE)
    assert res.classification == "diverging"


def test_non_integrable_pole_flagged():
    res = integrate(lambda r: 1.0 / r ** 1.5, 0.0, 1.0, singular_end="left")
    assert not res.converged


def test_panel_budget_with_summed_error_above_tolerance_is_not_converged():
    # 1.6 million periods use up the 6,000 panels while every single panel's
    # estimate is below half the tolerance; their sum is over 30 times above it
    res = integrate(lambda x: 1.0 + 1e-7 * np.cos(1e7 * x), 0.0, 1.0)
    assert res.err_est > 1e-10
    assert res.converged is False


def test_nan_on_subinterval_is_not_converged():
    res = integrate(lambda r: np.where((0.3 < r) & (r < 0.4), math.nan, r), 0.0, 1.0)
    assert res.converged is False


def test_raising_integrand_is_not_converged():
    def f(r):
        if np.any(r > 0.5):
            raise ZeroDivisionError("pole")
        return r

    res = integrate(f, 0.0, 1.0)
    assert res.converged is False


def test_value_error_from_integrand_propagates():
    def bad(r):
        raise ValueError("outside the domain")

    with pytest.raises(ValueError):
        integrate(bad, 0.0, 1.0)


def test_value_or_raise():
    assert QuadResult(1.5, 1e-12).value_or_raise() == 1.5
    with pytest.raises(NonConvergenceError):
        QuadResult(math.nan, math.inf, converged=False).value_or_raise()
    # an ArithmeticError, so integrate_to_limit drops such a sample
    assert issubclass(NonConvergenceError, ArithmeticError)


def test_limit_or_raise():
    assert LimitResult(2.5, "converged").limit_or_raise() == 2.5
    for cls in ("diverging", "oscillating"):
        with pytest.raises(NonConvergenceError, match=cls):
            LimitResult(math.nan, cls).limit_or_raise()
    # too few samples is one more number that could not be computed
    assert issubclass(InsufficientSamplesError, NonConvergenceError)


def test_limit_records_dropped_samples():
    def F(e):
        if e < 1e-5:
            raise ValueError("below the range")
        return math.nan if e == 1e-2 else 1.0 + e

    res = integrate_to_limit(F, DEFAULT_EPS_SEQUENCE)
    assert len(res.samples) == 4
    assert [e for e, _ in res.dropped] == [1e-2, 1e-6]
    assert res.dropped[0][1] == "non-finite value nan"
    assert res.dropped[1][1] == "ValueError: below the range"


def test_insufficient_samples_quotes_first_reason():
    # an integrand written for scalars fails on the node arrays; the error
    # says why instead of only counting the unusable samples
    scalar_only = lambda r: r if r > 0.5 else 0.0
    with pytest.raises(InsufficientSamplesError, match="truth value of an array"):
        integrate_to_limit(lambda e: integrate(scalar_only, e, 1.0).value,
                           DEFAULT_EPS_SEQUENCE)


def _cases(dim3):
    """name -> (f, a, b, singular_end)"""
    e1 = make_e1(dim3)
    lp = named_profile(dim3, "log_power(0.3)")
    return {
        "inverse_sqrt_right": (lambda r: 1.0 / np.sqrt(1.0 - r), 0.0, 1.0, "right"),
        "log_left": (lambda r: np.log(1.0 / r), 0.0, 1.0, "left"),
        # no grading: the peak at the left end is resolved by 16 splits
        "near_pole_ungraded": (lambda r: np.sin(3.0 * r) + 1.0 / np.sqrt(r + 1e-6),
                               0.0, 1.0, "none"),
        # cutoff_norm integrands: a first slice and a deep one
        "e1_direct_1e-6": (hardy.energy_density(dim3, e1.u, e1.du), 1e-6, 1.0, "left"),
        "log_power_reduced_1e-32": (hardy.reduced_density(dim3, lp.v, lp.dv),
                                    1e-32, 1.0, "left"),
        # a slice with a nonzero left end: levels from the width over that end
        "log_power_reduced_slice": (hardy.reduced_density(dim3, lp.v, lp.dv),
                                    1e-32, 1e-16, "left"),
        # graded toward a Bessel zero from the left, as in the zero splits
        "log_j0_right": (lambda r: np.log(np.abs(bessel_j(0.0, r))), 1.5, Z01, "right"),
        # 961 panels graded down to MOLLIFY_RADIUS, as in naive_cutoff_defect:
        # more than one batch of initial panels
        "e1_dirichlet_deep": (lambda r: (e1.dv(r) * np.sqrt(r)) ** 2,
                              MOLLIFY_RADIUS, 1e-4, "left"),
    }


@pytest.mark.parametrize("case", ["inverse_sqrt_right", "log_left", "near_pole_ungraded",
                                  "e1_direct_1e-6", "log_power_reduced_1e-32",
                                  "log_power_reduced_slice", "log_j0_right",
                                  "e1_dirichlet_deep"])
def test_batched_panels_match_scalar_oracle(dim3, case):
    # the same panels refined in the same order as the one-node-at-a-time
    # loop: equal point counts, values equal up to the summation order
    f, a, b, end = _cases(dim3)[case]
    sizes = []

    def counted(x):
        sizes.append(np.size(x))
        return f(x)

    res = integrate(counted, a, b, singular_end=end)
    want, points, panels = scalar_gk21(f, a, b, end)
    assert sum(sizes) == points
    assert abs(res.value - want) <= 1e-14 * abs(want)
    # the initial panels in consecutive batches of at most 128, one call on
    # the 21 nodes of each panel of a batch (at most 2,688 points), then one
    # call on the 42 nodes of the two children of each split
    batches = -(-panels // 128)
    assert sizes[:batches] == [21 * min(128, panels - 128 * k) for k in range(batches)]
    assert all(n == 42 for n in sizes[batches:])
