import math

import numpy as np
import pytest
from scipy import integrate

from cknlab.extremals import (
    bubble_w,
    bubble_w_prime,
    generator_v,
    optimal_constant,
    profile,
    psi,
    psi_norms,
    psi_prime,
)
from cknlab.params import make_params
from cknlab.specfun import sphere_area
from tests.conftest import sample_valid_params
from tests.oracles import emden_fowler_image, psi_second


def h1_quadrature(params, f, fp, half=None):
    d = params.ac_minus_a
    half = half if half is not None else 80.0 / d
    val, _ = integrate.quad(
        lambda t: fp(t) ** 2 + d * d * f(t) ** 2, -half, half, epsabs=1e-13, epsrel=1e-13, limit=400
    )
    return val * sphere_area(params.N)


def test_psi_at_zero_and_parity(params_case2):
    amp = profile(params_case2).amplitude
    assert psi(params_case2, 0.0) == pytest.approx(amp, rel=1e-14)
    ts = np.linspace(0.1, 8.0, 20)
    assert np.allclose(psi_prime(params_case2, -ts), -psi_prime(params_case2, ts), rtol=1e-13)
    assert psi_prime(params_case2, 0.0) == 0.0


def test_cylinder_pde_residual(params_case2):
    p, d = params_case2.p, params_case2.ac_minus_a
    t = np.linspace(-15.0, 15.0, 100)
    residual = -psi_second(params_case2, t) + d * d * psi(params_case2, t) - psi(params_case2, t) ** p
    assert np.max(np.abs(residual)) < 1e-10


def test_bubble_value_at_unit_radius(params_case2):
    p, d = params_case2.p, params_case2.ac_minus_a
    expected = (2.0 * (p + 1.0) * d * d) ** (1.0 / (p - 1.0)) * 2.0 ** (-2.0 / (p - 1.0))
    assert bubble_w(params_case2, 1.0) == pytest.approx(expected, rel=1e-14)


def test_emden_fowler_identity(rng):
    for _ in range(4):
        params = sample_valid_params(rng)
        radii = np.exp(rng.uniform(-3.0, 3.0, 50))
        lhs = radii**params.ac_minus_a * bubble_w(params, radii)
        rhs = psi(params, -np.log(radii))
        assert np.allclose(lhs, rhs, rtol=1e-13)


def test_emden_fowler_round_trip(params_case2):
    # forward transform of W equals Psi, and the inverse map recovers W
    radii = np.exp(np.linspace(-4.0, 4.0, 100))
    t = -np.log(radii)
    v = emden_fowler_image(params_case2, lambda r: bubble_w(params_case2, r), t)
    back = radii ** (-params_case2.ac_minus_a) * v
    assert np.allclose(back, bubble_w(params_case2, radii), rtol=1e-12)


def test_euclidean_equation_residual():
    # -div(|x|^(-2a) grad W) = |x|^(-b(p+1)) W^p in radial coordinates,
    # second derivative from the analytic first derivative by differences
    params = make_params(3, -0.5, 0.2)
    p, a, b = params.p, params.a, params.b
    n_dim = params.N
    for r in np.linspace(0.4, 3.0, 11):
        h = 1e-5 * r
        w2 = (bubble_w_prime(params, r + h) - bubble_w_prime(params, r - h)) / (2.0 * h)
        w1 = bubble_w_prime(params, r)
        lhs = -(w2 + (n_dim - 1.0 - 2.0 * a) * w1 / r) * r ** (-2.0 * a)
        rhs = r ** (-b * (p + 1.0)) * bubble_w(params, r) ** p
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_generator_zero_crossing_unique(params_case2):
    radii = np.linspace(0.05, 20.0, 4000)
    values = generator_v(params_case2, radii)
    signs = np.sign(values)
    crossings = np.sum(signs[:-1] != signs[1:])
    assert crossings == 1


def test_generator_is_cylinder_translation_mode(params_case2):
    t = np.linspace(-6.0, 6.0, 50)
    image = emden_fowler_image(params_case2, lambda r: generator_v(params_case2, r), t)
    assert np.allclose(image, -psi_prime(params_case2, t), rtol=1e-12, atol=1e-14)


def test_generator_solves_linearized_equation():
    # the linearized operator with multiplier p, residual via fourth-order
    # differences of V itself
    params = make_params(3, -0.5, 0.2)
    p, a, b = params.p, params.a, params.b
    n_dim = params.N

    def v(r):
        return generator_v(params, r)

    for r in np.linspace(0.5, 2.5, 9):
        h = 5e-3 * r
        stencil = (-v(r + 2 * h) + 16 * v(r + h) - 30 * v(r) + 16 * v(r - h) - v(r - 2 * h)) / (
            12.0 * h * h
        )
        first = (-v(r + 2 * h) + 8 * v(r + h) - 8 * v(r - h) + v(r - 2 * h)) / (12.0 * h)
        lhs = -(stencil + (n_dim - 1.0 - 2.0 * a) * first / r) * r ** (-2.0 * a)
        rhs = p * r ** (-b * (p + 1.0)) * bubble_w(params, r) ** (p - 1.0) * v(r)
        scale = abs(rhs) + abs(lhs) + 1.0
        assert abs(lhs - rhs) / scale < 1e-7


def test_psi_norms_identity_and_reference_value(params_case2):
    norms = psi_norms(params_case2)
    assert norms.h1_sq == norms.lp1_pow
    expected = 49152.0 * math.pi**2 / 2835.0
    assert norms.lp1_pow == pytest.approx(expected, rel=1e-13)
    # independent oracle: adaptive quadrature of both norms
    quad_h1 = h1_quadrature(
        params_case2, lambda t: psi(params_case2, t), lambda t: psi_prime(params_case2, t)
    )
    assert norms.h1_sq == pytest.approx(quad_h1, rel=1e-9)
    lp1_quad, _ = integrate.quad(
        lambda t: psi(params_case2, t) ** (params_case2.p + 1.0), -240.0, 240.0,
        epsabs=1e-13, epsrel=1e-13, limit=400,
    )
    assert norms.lp1_pow == pytest.approx(lp1_quad * sphere_area(4), rel=1e-9)


def test_psi_norms_shift_invariance(params_case2):
    p = params_case2.p
    shifted, _ = integrate.quad(
        lambda t: psi(params_case2, t - 3.0) ** (p + 1.0), -240.0, 246.0,
        epsabs=1e-13, epsrel=1e-13, limit=400,
    )
    assert shifted * sphere_area(4) == pytest.approx(psi_norms(params_case2).lp1_pow, rel=1e-12)


def test_optimal_constant_reference(params_case2):
    const = optimal_constant(params_case2)
    assert const.c_inv == pytest.approx(3.6167789720322765, rel=1e-12)
    # the published closed form omits exactly a surface-area power
    p = params_case2.p
    assert const.ratio == pytest.approx(sphere_area(4) ** ((p - 1.0) / (p + 1.0)), rel=1e-12)


def test_optimal_constant_ratio_law_across_b(rng):
    # the discrepancy is a pure surface-area power at every point, so the
    # ratio varies with b only through the exponent (p-1)/(p+1)
    for b in np.linspace(0.15, 0.85, 8):
        params = make_params(4, 0.0, float(b))
        const = optimal_constant(params)
        p = params.p
        assert const.ratio == pytest.approx(
            sphere_area(4) ** ((p - 1.0) / (p + 1.0)), rel=1e-12
        )


def test_quotient_local_minimality(params_case2, rng):
    # S(v) = |v|_H1^2 / |v|_{p+1}^2 is minimized by the bubble
    from cknlab.cylinder import combine, model_for

    model = model_for(params_case2)
    psif = model.psi_function()
    const = optimal_constant(params_case2)

    def s_quotient(v):
        return model.h1_inner(v, v) / model.lp1_pow(v) ** (2.0 / (params_case2.p + 1.0))

    assert s_quotient(psif) == pytest.approx(const.c_inv, rel=1e-12)
    for _ in range(20):
        noise = model.random_mperp(int(rng.integers(1 << 31)), 1e-3)
        perturbed = combine([1.0, 1.0], [psif, noise])
        assert s_quotient(perturbed) >= const.c_inv * (1.0 - 1e-12)
