import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from cknlab.cylinder import combine, model_for
from cknlab.energy import (
    a0_coefficient,
    appendix_report,
    bounds_report,
    fbar,
    gap_perturbation_quotient,
    rho02_h1_norm_sq,
    rho02_weighted_moment,
    third_order_coefficient,
    two_bubble_quotient,
    zhat,
)
from cknlab.extremals import log_amplitude, psi, psi_norms
from cknlab.minimizer import OnManifold, quotient
from cknlab.params import RegionClass, classify, curve_constants, make_params
from cknlab.specfun import sphere_area, sphere_moments
from cknlab.spectrum import rho_02, rho_10_profile, spectral_gap
from tests.conftest import sample_valid_params
from tests.oracles import a0_quadrature, amplitude, bubble_function, rho10_function


def line_quad(f, half):
    val, _ = integrate.quad(f, -half, half, epsabs=1e-13, epsrel=1e-12, limit=800)
    return val


# ----------------------------------------------------------------------------
# third-order coefficient


def test_quartic_factor_values():
    # p^4 - 6 p^2 + 8 p - 3 = (p-1)^3 (p+3)
    for p in (3.0, 1.5, 2.2):
        assert (p - 1.0) ** 3 * (p + 3.0) == pytest.approx(
            p**4 - 6.0 * p**2 + 8.0 * p - 3.0, rel=1e-12
        )
    assert (1.0 + 1e-9) ** 4 - 6.0 * (1.0 + 1e-9) ** 2 + 8.0 * (1.0 + 1e-9) - 3.0 < 1e-20


def test_third_order_closed_form_vs_quadrature(rng):
    for _ in range(10):
        params = sample_valid_params(rng, region="CaseII", p_cap=5.0)
        d = params.ac_minus_a
        quad = sphere_area(params.N) * line_quad(
            lambda t: psi(params, t) ** (params.p - 2.0) * rho_02(params, t) ** 3,
            200.0 / d,
        )
        assert third_order_coefficient(params) == pytest.approx(quad, rel=1e-8)


def test_third_order_positive_across_gap_regions(rng):
    for _ in range(1000):
        params = sample_valid_params(
            rng, region="CaseI" if rng.random() < 0.5 else "CaseII", p_cap=30.0
        )
        assert third_order_coefficient(params) > 0.0


def test_third_order_positive_where_the_amplitude_overflows():
    # p = 1.0035: the amplitude ((p+1)(a_c-a)^2/2)^(1/(p-1)) is past the double
    # range, the moment is subnormal; the reference is the closed form at 50 digits
    params = make_params(6, -1.5912638703736215, -0.5964609072071863)
    assert log_amplitude(params) > math.log(sys.float_info.max)
    assert third_order_coefficient(params) == pytest.approx(7.5263483573837682619e-310, rel=1e-10)


def test_rho02_moments_closed_forms(params_case2):
    d = params_case2.ac_minus_a
    p = params_case2.p
    quad = sphere_area(4) * line_quad(
        lambda t: psi(params_case2, t) ** (p - 1.0) * rho_02(params_case2, t) ** 2, 200.0 / d
    )
    assert rho02_weighted_moment(params_case2) == pytest.approx(quad, rel=1e-10)
    assert rho02_h1_norm_sq(params_case2) == pytest.approx(410.16537770760976, rel=1e-12)


# ----------------------------------------------------------------------------
# tail overlap coefficient


def test_a0_positive_and_matches_independent_closed_form(rng):
    for _ in range(5):
        params = sample_valid_params(rng, p_cap=5.0)
        p, g = params.p, params.gamma
        amp = amplitude(params)
        a0 = a0_coefficient(params)
        assert a0 > 0.0
        closed = (
            amp ** (p + 1.0)
            * sphere_area(params.N)
            * 2.0 ** ((p + 3.0) / (p - 1.0))
            * (p - 1.0)
            / (g * (p + 1.0))
        )
        assert a0 == pytest.approx(closed, rel=1e-11)


def test_a0_matches_line_quadrature(rng):
    points = [sample_valid_params(rng) for _ in range(40)]
    points += [make_params(3, 0.36788, 1.34732), make_params(7, -0.399, 0.5293)]
    for params in points:
        assert a0_coefficient(params) == pytest.approx(a0_quadrature(params), rel=1e-12)


def test_a0_is_nan_where_it_leaves_the_double_range():
    # p = 1.0062: A0 = e^824 overflows, and so would amplitude^(p+1) and
    # 2^((p+3)/(p-1)) in a float product
    assert math.isnan(a0_coefficient(make_params(3, -1.284, -0.2886)))


def test_a0_norm_expansion_fit(params_p3):
    # (|Psi + Psi_s|^2 - 2 |Psi|^2) / (2 e^{-2 gamma s/(p-1)}) -> A0
    model = model_for(params_p3)
    a0 = a0_coefficient(params_p3)
    g, p = params_p3.gamma, params_p3.p
    s = 8.0 / g  # e^{-gamma (p+1) s/(p-1)} < 1e-3 e^{-2 gamma s/(p-1)} here
    v = model.two_bubble(s)
    fit = (model.h1_inner(v, v) - 2.0 * model.energy_psi) / (
        2.0 * math.exp(-2.0 * g * s / (p - 1.0))
    )
    assert fit == pytest.approx(a0, rel=5e-2)


def test_a0_overlap_ratio_tends_to_one(params_p3):
    model = model_for(params_p3)
    a0 = a0_coefficient(params_p3)
    g, p = params_p3.gamma, params_p3.p
    ratios = []
    for s in (8.0 / g, 12.0 / g):
        overlap = model.overlap(bubble_function(model, shift=s), 0.0)
        ratios.append(overlap / (a0 * math.exp(-2.0 * g * s / (p - 1.0))))
    assert ratios[0] == pytest.approx(1.0, abs=2e-2)
    assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)


# ----------------------------------------------------------------------------
# two-bubble quotient


def test_two_bubble_bound_and_deficit(params_p3):
    g, p = params_p3.gamma, params_p3.p
    bound = 2.0 - 2.0 ** (2.0 / (p + 1.0))
    for s_units in (8.0, 10.0, 12.0):
        report = two_bubble_quotient(params_p3, s_units / g)
        assert report.value < bound
        assert report.deficit_rate == pytest.approx(report.predicted_deficit_rate, rel=0.10)
    report = two_bubble_quotient(params_p3, 12.0 / g)
    assert report.dist_ratio == pytest.approx(1.0, abs=2e-2)


def test_two_bubble_display_rate_is_surfaced(params_p3):
    # both rate conventions are reported; they are genuinely different numbers
    report = two_bubble_quotient(params_p3, 10.0 / params_p3.gamma)
    assert report.predicted_deficit_rate_display > 0.0
    assert report.predicted_deficit_rate_display != pytest.approx(
        report.predicted_deficit_rate, rel=0.5
    )


def test_two_bubble_is_psi_plus_psi_s_up_to_rounding(rng):
    # Q is translation invariant, so the centred pair and Psi + Psi_s built
    # here differ on the grid only at rounding
    for _ in range(20):
        params = sample_valid_params(rng)
        model = model_for(params)
        for s in (3.0 / params.gamma, 10.0 / params.gamma):
            uncentred = combine([1.0, 1.0], [model.psi_function(), bubble_function(model, s)])
            q = model.quotient(model.two_bubble(s))[0]
            assert q == pytest.approx(model.quotient(uncentred)[0], rel=1e-12)


def test_two_bubble_rejects_oversized_separation(params_p3):
    with pytest.raises(ValueError):
        two_bubble_quotient(params_p3, 1e6)


# ----------------------------------------------------------------------------
# gap perturbation quotient


def test_gap_perturbation_below_gap_bound(params_case2):
    report = gap_perturbation_quotient(params_case2, 0.01)
    p = params_case2.p
    assert report.value < 2.0 * (p - 1.0) / (3.0 * p - 1.0)
    assert report.value == pytest.approx(report.predicted_value, abs=5e-5)


def test_gap_perturbation_slope_extraction(params_case2):
    eps_values = np.array([0.02, 0.01, 0.005])
    qs = np.array([gap_perturbation_quotient(params_case2, float(e)).value for e in eps_values])
    design = np.vstack([np.ones_like(eps_values), -eps_values]).T
    (limit_fit, slope_fit), *_ = np.linalg.lstsq(design, qs, rcond=None)
    report = gap_perturbation_quotient(params_case2, 0.01)
    assert slope_fit == pytest.approx(report.slope, rel=0.10)
    assert limit_fit == pytest.approx(report.limit, abs=1e-3)


def test_gap_perturbation_limit_small_slope_point():
    params = make_params(3, -1.0, -0.2)
    assert classify(params).region == RegionClass.CASE_II
    report = gap_perturbation_quotient(params, 1e-3)
    assert abs(report.value - spectral_gap(params).lambda_star) < 1e-4


def test_gap_perturbation_eps_validation(params_case2):
    with pytest.raises(ValueError):
        gap_perturbation_quotient(params_case2, 0.0)
    with pytest.raises(ValueError):
        gap_perturbation_quotient(params_case2, 0.5)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), eps=st.floats(0.0, 0.2, exclude_min=True))
def test_gap_perturbation_is_undefined_exactly_where_the_minimizer_says_on_manifold(seed, eps):
    # one rule decides where Q is defined: energy reports NaN exactly where
    # minimizer.quotient raises OnManifold, and the same Q bit for bit elsewhere
    params = sample_valid_params(np.random.default_rng(seed))
    model = model_for(params)
    value = gap_perturbation_quotient(params, eps).value
    try:
        q = quotient(combine([1.0, eps], [model.psi_function(), model.rho02_function()])).value
    except OnManifold:
        assert math.isnan(value)
    else:
        assert q.hex() == value.hex()


# ----------------------------------------------------------------------------
# bounds report


def test_bounds_report_fields(params_case2, params_remaining):
    b2 = bounds_report(params_case2)
    assert b2.bound_gap == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert b2.bound_two_bubble == pytest.approx(2.0 - 2.0 ** (2.0 / (params_case2.p + 1.0)))
    assert b2.bound_two_bubble_variant == pytest.approx(
        2.0 - 2.0 ** (1.0 / (params_case2.p + 1.0))
    )
    assert 0.0 < b2.bound_two_bubble < 1.0
    assert b2.effective_bound == min(b2.bound_gap, b2.bound_two_bubble)
    # either ordering of the two bounds occurs; the report records which wins
    assert b2.effective_bound == b2.bound_two_bubble
    b3 = bounds_report(params_remaining)
    assert b3.effective_bound == b3.bound_gap


# ----------------------------------------------------------------------------
# quartic coefficient


def test_zhat_negative_across_remaining_region(rng):
    for n_dim in (2, 3, 4, 5):
        for _ in range(20):
            params = sample_valid_params(rng, n_choices=(n_dim,), region="Remaining", p_cap=30.0)
            report = zhat(params)
            assert report.value < 0.0
            assert report.value_variational < 0.0


def test_zhat_display_equals_closed_recombination(rng):
    # the display formula is exactly the quartic recombined with the
    # surface-area-free optimal constant
    for _ in range(10):
        params = sample_valid_params(rng, region="Remaining", avoid_p_near_2=True)
        report = zhat(params)
        p = params.p
        energy = psi_norms(params).h1_sq
        area = sphere_area(params.N)
        recombined = (
            p * (p - 1.0) * (p - 2.0) / 12.0 * report.moment4
            - (p - 1.0) * p**2 / 4.0 * report.moment2**2 * area / energy
        )
        assert report.value == pytest.approx(recombined, rel=1e-11)


def test_zhat_moments_against_2d_quadrature(params_remaining):
    params = params_remaining
    p, g = params.p, params.gamma
    k1 = math.sqrt(params.tau(1)) / g
    moments = sphere_moments(params.N)
    half = 400.0
    m4 = moments.fourth * line_quad(
        lambda t: psi(params, t) ** (p - 3.0) * rho_10_profile(params, t) ** 4, half
    )
    m2 = moments.second * line_quad(
        lambda t: psi(params, t) ** (p - 1.0) * rho_10_profile(params, t) ** 2, half
    )
    report = zhat(params)
    assert report.moment4 == pytest.approx(m4, rel=1e-10)
    assert report.moment2 == pytest.approx(m2, rel=1e-10)


def test_zhat_finite_at_exponent_two():
    curves = curve_constants(4)
    params = make_params(4, 0.0, curves.b_fs_double_star(0.0))
    assert params.p == pytest.approx(2.0, rel=1e-14)
    report = zhat(params)
    assert report.pole_flag
    assert math.isnan(report.bracket)
    assert report.value < 0.0
    # at p = 2 the quartic moment drops out entirely
    p = params.p
    expected = -(p - 1.0) * p**2 / 4.0 * report.moment2**2 * sphere_area(4) / psi_norms(params).h1_sq
    assert report.value == pytest.approx(expected, rel=1e-11)


def test_fbar_negative_on_stated_domain(rng):
    for _ in range(50):
        params = sample_valid_params(rng, n_choices=(2, 3, 4, 5), region="Remaining", p_cap=30.0)
        if params.q_star < 1.5:
            continue
        for p in np.linspace(1.0 + 1e-6, 4.0, 40):
            assert fbar(params, float(p)) < 0.0


def test_q_star_bounds_on_appendix_interval():
    for n_dim in (2, 3, 4, 5):
        curves = curve_constants(n_dim)
        for a in np.linspace(curves.a_c_double_star, curves.a_c_triple_star, 50, endpoint=False):
            d = curves.a_c - a
            q_star = math.sqrt(1.0 + (n_dim - 1) / (d * d))
            assert 1.5 - 1e-12 <= q_star <= 2.0 + 1e-12


def test_appendix_report_fields(params_remaining):
    report = appendix_report(params_remaining)
    assert report.region == RegionClass.REMAINING
    assert report.sign_negative
    assert report.p_above_2 == (params_remaining.p > 2.0)
    assert report.fbar_at_p < 0.0
    assert report.a_c_double_star < report.a_c_triple_star


def test_fourth_order_expansion_slope(params_remaining):
    # Q(Psi + eps rho_10) = L + (-Zhat_var / |rho_10|^2) eps^2 + o(eps^2); the
    # variational-constant coefficient is the one the expansion actually obeys
    model = model_for(params_remaining)
    rho = rho10_function(model)
    norm_sq = model.h1_inner(rho, rho)
    psif = model.psi_function()
    eps_values = np.array([0.02, 0.01, 0.005])
    qs = []
    for eps in eps_values:
        v = combine([1.0, float(eps)], [psif, rho])
        numerator = model.h1_inner(v, v) - model.c_inv * model.lp1_pow(v) ** (
            2.0 / (params_remaining.p + 1.0)
        )
        qs.append(numerator / model.distance_to_manifold(v).distance_sq)
    design = np.vstack([np.ones_like(eps_values), eps_values**2]).T
    (limit_fit, curvature), *_ = np.linalg.lstsq(design, np.array(qs), rcond=None)
    gap = spectral_gap(params_remaining)
    assert limit_fit == pytest.approx(gap.lambda_star, abs=1e-4)
    expected = -zhat(params_remaining).value_variational / norm_sq
    assert curvature == pytest.approx(expected, rel=0.20)
    assert curvature > 0.0  # the quotient approaches the gap constant from above
