import math

import numpy as np
import pytest

from cknlab.extremals import psi
from cknlab.params import RegionClass, classify, curve_constants, felli_schneider, make_params
from cknlab.specfun import jacobi_polynomial
from cknlab.spectrum import (
    eigenvalue_closed,
    eigenfunction,
    harmonic_multiplicity,
    rho_02,
    rho_10,
    rho_10_profile,
    spectral_gap,
)
from tests.conftest import sample_valid_params
from tests.oracles import (
    bubble_half_width,
    comparison_functions,
    jacobi_mode,
    jacobi_mode_h1_norm_sq,
    orthogonality_check,
)


def test_exact_eigenvalue_identities(rng):
    for _ in range(20):
        params = sample_valid_params(rng)
        assert eigenvalue_closed(params, 0, 1).lam == pytest.approx(1.0, rel=1e-12)
        assert eigenvalue_closed(params, 0, 0).lam == pytest.approx(1.0 / params.p, rel=1e-12)
        assert eigenvalue_closed(params, 0, 2).lam == pytest.approx(
            (3.0 * params.p - 1.0) / (params.p + 1.0), rel=1e-12
        )


def test_level_matching_back_substitution(rng):
    for _ in range(10):
        params = sample_valid_params(rng)
        g, b = params.gamma, params.beta
        for i in range(5):
            for j in range(5):
                lam = eigenvalue_closed(params, i, j).lam
                lhs = g * g / 4.0 * (-(2 * j + 1) + math.sqrt(1.0 + 4.0 * lam * b / g**2)) ** 2
                assert lhs == pytest.approx(params.tau(i), rel=1e-12)


def test_monotonicity_in_both_indices(rng):
    for _ in range(10):
        params = sample_valid_params(rng)
        for i in range(4):
            for j in range(4):
                lam = eigenvalue_closed(params, i, j).lam
                assert lam < eigenvalue_closed(params, i + 1, j).lam
                assert lam < eigenvalue_closed(params, i, j + 1).lam


def test_translation_eigenvalue_above_one(rng):
    for _ in range(200):
        params = sample_valid_params(rng)
        assert eigenvalue_closed(params, 1, 0).lam > 1.0


def test_translation_eigenvalue_near_degenerate_curve():
    b_fs = felli_schneider(3, -1.0)
    params = make_params(3, -1.0, b_fs + 1e-9)
    assert eigenvalue_closed(params, 1, 0).lam == pytest.approx(1.0, abs=1e-6)


def test_winner_matches_region(rng):
    for _ in range(1000):
        params = sample_valid_params(rng)
        region = classify(params).region
        lam02 = eigenvalue_closed(params, 0, 2).lam
        lam10 = eigenvalue_closed(params, 1, 0).lam
        lam11 = eigenvalue_closed(params, 1, 1).lam
        smallest = min(lam02, lam10, lam11)
        if region == RegionClass.REMAINING:
            assert smallest == lam10
        else:
            assert smallest == lam02


def test_comparison_ratio_on_the_curves():
    for n_dim, a in ((3, -1.0), (4, -0.5), (5, -2.0), (2, -0.7)):
        d = (n_dim - 2) / 2.0 - a
        g = math.sqrt(0.25 + (n_dim - 1) / (4.0 * d * d)) - 0.5

        def h_of(b):
            u = 1.0 + a - b
            return u / (n_dim - 2.0 * u)

        assert g / h_of(felli_schneider(n_dim, a)) == pytest.approx(1.0, rel=1e-12)
        assert g / h_of(curve_constants(n_dim).b_fs_star(a)) == pytest.approx(2.0, rel=1e-12)


def test_comparison_ratio_orders_eigenvalues(rng):
    for _ in range(1000):
        params = sample_valid_params(rng)
        g, h = comparison_functions(params)
        lam02 = eigenvalue_closed(params, 0, 2).lam
        lam10 = eigenvalue_closed(params, 1, 0).lam
        lam11 = eigenvalue_closed(params, 1, 1).lam
        assert (g / h > 1.0) == (lam02 < lam11)
        if abs(g / h - 2.0) > 1e-9:
            assert (g / h > 2.0) == (lam02 < lam10)


def test_gap_constants_reference_points(params_case2, params_remaining):
    gap2 = spectral_gap(params_case2)
    assert gap2.lambda_star == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert gap2.winner == (0, 2)
    gap3 = spectral_gap(params_remaining)
    assert gap3.lambda_star == pytest.approx(53.0 / 143.0, rel=1e-12)
    assert gap3.winner == (1, 0)
    assert gap3.lambda_10 == pytest.approx(858.0 / 540.0, rel=1e-12)
    # the alternative published branch disagrees with the vanishing form and
    # is surfaced, not used
    assert gap3.lambda_star_variant == pytest.approx(1338.0 / 1716.0, rel=1e-12)
    assert gap3.lambda_star_variant != pytest.approx(gap3.lambda_star, rel=1e-2)


def test_gap_simplified_forms(rng):
    for _ in range(100):
        params = sample_valid_params(rng)
        gap = spectral_gap(params)
        p = params.p
        if gap.region in (RegionClass.CASE_I, RegionClass.CASE_II):
            assert gap.lambda_star == pytest.approx(2.0 * (p - 1.0) / (3.0 * p - 1.0), rel=1e-12)
        else:
            tau1 = params.tau(1)
            root = math.sqrt(tau1)
            expected = (root * (root + params.gamma) - params.beta) / (root * (root + params.gamma))
            assert gap.lambda_star == pytest.approx(expected, rel=1e-12)


def test_gap_vanishes_toward_degenerate_curve():
    b_fs = felli_schneider(4, -1.0)
    values = []
    for offset in (1e-2, 1e-4, 1e-6):
        params = make_params(4, -1.0, b_fs + offset)
        gap = spectral_gap(params)
        assert gap.region == RegionClass.REMAINING
        values.append(gap.lambda_star)
    assert values[0] > values[1] > values[2] > 0.0
    assert values[2] < 1e-5


def test_coincidence_on_b_fs_star():
    curves = curve_constants(4)
    params = make_params(4, 0.0, curves.b_fs_star(0.0))
    gap = spectral_gap(params)
    assert gap.lambda_02 == pytest.approx(gap.lambda_10, rel=1e-12)


def test_rho02_rodrigues_vs_explicit(params_case2):
    t = np.linspace(-12.0, 12.0, 100)
    raw = eigenfunction(params_case2, 0, 2, t)
    explicit = rho_02(params_case2, t)
    # least-squares scalar between the two normalizations
    c = float(np.dot(raw, explicit) / np.dot(raw, raw))
    assert np.max(np.abs(explicit - c * raw)) < 1e-12 * np.max(np.abs(explicit))


def test_eigenfunctions_bounded_by_bubble():
    points = [
        make_params(4, 0.0, 0.5),
        make_params(4, 0.5, 0.6),
        make_params(4, 0.0, 0.3),
        make_params(3, -1.0, -0.2),
        make_params(2, -0.7, -0.05),
    ]
    for params in points:
        unit = max(1.0 / params.ac_minus_a, 1.0 / params.gamma)
        wide = np.linspace(-50.0 * unit, 50.0 * unit, 200)
        narrow = np.linspace(-8.0 * unit, 8.0 * unit, 200)
        for i in range(3):
            for j in range(3):
                ratio_wide = np.max(
                    np.abs(eigenfunction(params, i, j, wide)) / psi(params, wide)
                )
                ratio_narrow = np.max(
                    np.abs(eigenfunction(params, i, j, narrow)) / psi(params, narrow)
                )
                assert np.isfinite(ratio_wide)
                assert ratio_wide <= 2.0 * ratio_narrow


def test_eigenfunction_ode_residual(rng):
    # residual of -phi'' + tau phi = lam beta sech^2(gamma t) phi with the
    # second derivative assembled analytically through the polynomial factor
    for _ in range(5):
        params = sample_valid_params(rng)
        g = params.gamma
        for i, j in ((0, 2), (1, 0), (1, 1), (2, 1)):
            tau = params.tau(i)
            k = math.sqrt(tau) / g
            lam = eigenvalue_closed(params, i, j).lam
            t = np.linspace(-10.0 / (2.0 * g), 10.0 / (2.0 * g), 100)
            y = np.tanh(g * t)
            sech_sq = 1.0 - y * y
            envelope = np.exp(-k * np.log(np.cosh(g * t)))

            def poly(order, shift, yy):
                if order < 0:
                    return np.zeros_like(yy)
                return jacobi_polynomial(order, k + shift, yy)

            pj = poly(j, 0.0, y)
            pj1 = (j + 2.0 * k + 1.0) / 2.0 * poly(j - 1, 1.0, y)
            pj2 = (j + 2.0 * k + 1.0) * (j + 2.0 * k + 2.0) / 4.0 * poly(j - 2, 2.0, y)
            a_val = pj1 * sech_sq - k * y * pj
            a_prime = pj2 * sech_sq - 2.0 * y * pj1 - k * pj - k * y * pj1
            phi = pj * envelope
            phi2 = g * g * envelope * (sech_sq * a_prime - k * y * a_val)
            residual = -phi2 + tau * phi - lam * params.beta * sech_sq * phi
            scale = np.max(np.abs(params.beta * sech_sq * phi)) + 1e-30
            assert np.max(np.abs(residual)) < 1e-9 * scale


def test_rho10_shape(params_remaining):
    t = np.linspace(-4.0, 4.0, 9)
    prof = rho_10_profile(params_remaining, t)
    assert np.allclose(rho_10(params_remaining, t, 0.0), prof)
    assert np.allclose(rho_10(params_remaining, t, math.pi / 2.0), 0.0, atol=1e-16)
    k = math.sqrt(params_remaining.tau(1)) / params_remaining.gamma
    assert prof[0] == pytest.approx(math.cosh(params_remaining.gamma * t[0]) ** (-k), rel=1e-12)


def test_orthogonality_report(params_case2):
    # near p -> 1 the bubble core is wider than a window sized from its tail
    # decay, and Psi itself is tiny (amplitude 9e-64 at (3, 0.36788, 1.34732))
    # or underflows to 0 (at (4, 0.2, 1.1995))
    near_edge = [(7, -0.399, 0.5293), (3, 0.36788, 1.34732), (4, 0.2, 1.19),
                 (3, -1.284, -0.2886), (4, 0.2, 1.198), (4, 0.2, 1.1995)]
    for params in [params_case2] + [make_params(*point) for point in near_edge]:
        report = orthogonality_check(params)
        assert report.passed
        assert report.rho02_vs_psi < 1e-8
        assert report.rho02_vs_psi_prime < 1e-8
        assert report.rho10_vs_mode_zero == 0.0


@pytest.mark.parametrize(
    "point",
    [(4, 0.0, 0.5), (4, 0.5, 0.6), (3, -0.4, 0.2), (5, 0.3, 1.1), (7, -0.399, 0.5293),
     (3, 0.36788, 1.34732)],
)
def test_eigenfunction_unit_h1_norm_against_quadrature(point):
    params = make_params(*point)
    t = np.linspace(-1.0, 1.0, 201) * bubble_half_width(params)
    for i in range(3):
        for j in range(3):
            raw, _ = jacobi_mode(params, i, j, t)
            norm = math.sqrt(jacobi_mode_h1_norm_sq(params, i, j))
            # eigenfunction = raw / |raw|_H1 pointwise iff its H1 norm is 1
            scaled = eigenfunction(params, i, j, t) * norm
            assert np.max(np.abs(scaled - raw)) < 1e-10 * np.max(np.abs(raw))


def test_multiplicities():
    assert harmonic_multiplicity(4, 0) == 1
    assert harmonic_multiplicity(4, 1) == 4
    assert harmonic_multiplicity(3, 2) == 5
    assert harmonic_multiplicity(2, 0) == 1
    assert harmonic_multiplicity(2, 3) == 2
