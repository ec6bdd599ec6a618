import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import eval_jacobi

from cknlab.specfun import (
    beta,
    cosh_power_integral,
    integrate_line,
    jacobi_polynomial,
    sphere_area,
    sphere_moments,
)
from tests.oracles import beta_reduction


def quad_cosh_power(alpha, beta_exp):
    """Independent quadrature oracle for the sech-power line integral.

    Substituting x = sinh(s) and then absorbing the algebraic endpoint
    behavior exactly (w = x^(2 beta + 1) on [0, 1], z = (1/x)^(alpha - 2 beta)
    on [1, inf)) leaves two bounded integrands on [0, 1]; the raw integrand
    has an s^(2 beta) singularity at the origin that defeats plain adaptive
    quadrature for beta < 0.
    """
    ex1 = 2.0 * beta_exp + 1.0
    ex2 = alpha - 2.0 * beta_exp

    def core(x):
        return (1.0 + x * x) ** (-(alpha + 1.0) / 2.0)

    inner, _ = integrate.quad(
        lambda w: core(w ** (1.0 / ex1)), 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=400
    )
    outer, _ = integrate.quad(
        lambda z: core(z ** (1.0 / ex2)), 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=400
    )
    return 2.0 * inner / ex1 + 2.0 * outer / ex2


def test_cosh_power_integral_trivial_values():
    assert cosh_power_integral(2.0, 0.0) == pytest.approx(2.0, rel=1e-14)
    assert cosh_power_integral(4.0, 0.0) == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_cosh_power_integral_matches_quadrature():
    assert cosh_power_integral(5.2, 0.7) == pytest.approx(quad_cosh_power(5.2, 0.7), abs=1e-10)


def test_cosh_power_integral_random_sample():
    rng = np.random.default_rng(4)
    for _ in range(20):
        beta_exp = float(rng.uniform(-0.4, 2.0))
        alpha = float(rng.uniform(2.0 * beta_exp + 0.6, 2.0 * beta_exp + 10.0))
        closed = cosh_power_integral(alpha, beta_exp)
        assert closed == pytest.approx(quad_cosh_power(alpha, beta_exp), rel=1e-10, abs=1e-12)


def test_cosh_power_integral_domain():
    with pytest.raises(ValueError):
        cosh_power_integral(1.0, 0.6)
    with pytest.raises(ValueError):
        cosh_power_integral(4.0, -0.5)


def test_beta_reduction_exact_values():
    assert beta_reduction(2.0, 0.5) == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert beta_reduction(4.0, 0.5) == pytest.approx(32.0 / 35.0, rel=1e-14)


def test_beta_reduction_matches_direct():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = float(rng.uniform(1.0 + 1e-6, 10.0))
        n = float(rng.uniform(1e-3, 5.0))
        assert beta_reduction(m, n) == pytest.approx(beta(m, n), rel=1e-12)


def test_beta_reduction_domain():
    with pytest.raises(ValueError):
        beta_reduction(1.0, 1.0)
    with pytest.raises(ValueError):
        beta_reduction(3.0, 0.0)


def test_jacobi_degree_zero_and_one():
    rng = np.random.default_rng(3)
    for _ in range(5):
        e = float(rng.uniform(0.5, 5.0))
        y = float(rng.uniform(-1.0, 1.0))
        assert jacobi_polynomial(0, e, y) == 1.0
        assert jacobi_polynomial(1, e, y) == pytest.approx((e + 1.0) * y, rel=1e-13, abs=1e-13)


def test_jacobi_degree_one_against_rodrigues_differentiation():
    # oracle: central finite differences on the Rodrigues formula itself
    e = 1.7
    for y in (-0.8, -0.3, 0.0, 0.4, 0.9):
        h = 1e-6

        def inner(z):
            return (1.0 - z * z) ** (1.0 + e)

        derivative = (inner(y + h) - inner(y - h)) / (2.0 * h)
        rodrigues = -0.5 * (1.0 - y * y) ** (-e) * derivative
        assert jacobi_polynomial(1, e, y) == pytest.approx(rodrigues, rel=1e-8, abs=1e-8)


def test_jacobi_degree_two_closed_form():
    # P_2 with equal parameters e collapses to (2+e)((2e+3)y^2 - 1)/4
    e = 2.0 / (5.0 / 3.0 - 1.0)
    y = np.linspace(-1.0, 1.0, 41)
    expected = (2.0 + e) * ((2.0 * e + 3.0) * y**2 - 1.0) / 4.0
    assert np.allclose(jacobi_polynomial(2, e, y), expected, rtol=1e-13, atol=1e-13)


def test_jacobi_integer_exponent_exact_coefficients():
    # rational-arithmetic oracle: expand the Rodrigues derivative exactly for
    # integer exponents and compare values at rational nodes
    from fractions import Fraction

    def exact_polynomial(j, e):
        # (1 - y^2)^(j+e) as coefficients of y^(2m)
        n = j + e
        source = {2 * m: Fraction((-1) ** m) * math.comb(n, m) for m in range(n + 1)}
        # j-fold derivative
        for _ in range(j):
            source = {k - 1: c * k for k, c in source.items() if k >= 1}
        # divide by (1 - y^2)^e: exact ascending recurrence q_k = p_k + q_(k-2)
        coeffs = dict(source)
        for _ in range(e):
            deg = max(coeffs)
            quotient = {}
            for k in range(0, deg - 1):
                quotient[k] = coeffs.get(k, Fraction(0)) + quotient.get(k - 2, Fraction(0))
            coeffs = quotient
        scale = Fraction((-1) ** j, 2**j * math.factorial(j))
        return {k: scale * c for k, c in coeffs.items()}

    for j in range(5):
        for e in (1, 2, 3):
            poly = exact_polynomial(j, e)
            for num in range(-8, 9, 2):
                y = Fraction(num, 9)
                exact = sum(c * y**k for k, c in poly.items())
                value = jacobi_polynomial(j, float(e), float(y))
                assert value == pytest.approx(float(exact), rel=1e-13, abs=1e-14)


def test_jacobi_small_degrees_match_scipy():
    rng = np.random.default_rng(8)
    for j in range(5):
        for _ in range(5):
            e = float(rng.uniform(0.3, 4.0))
            y = float(rng.uniform(-1.0, 1.0))
            assert jacobi_polynomial(j, e, y) == pytest.approx(
                float(eval_jacobi(j, e, e, y)), rel=1e-12, abs=1e-12
            )


def test_sphere_d_n_values():
    assert sphere_moments(2).d_n == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert sphere_moments(3).d_n == pytest.approx(20.0 * math.pi / 3.0, rel=1e-14)
    assert sphere_moments(4).d_n == pytest.approx(3.0 * math.pi**2, rel=1e-14)
    assert sphere_moments(5).d_n == pytest.approx(56.0 * math.pi**2 / 15.0, rel=1e-14)


def test_sphere_standard_values():
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert sphere_moments(3).second == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


def test_sphere_fourth_to_second_ratio_monte_carlo():
    # oracle: moments of a uniformly sampled direction vector
    rng = np.random.default_rng(99)
    for n_dim in range(2, 9):
        g = rng.standard_normal((200_000, n_dim))
        theta = g[:, 0] / np.linalg.norm(g, axis=1)
        ratio = np.mean(theta**4) / np.mean(theta**2)
        assert ratio == pytest.approx(3.0 / (n_dim + 2), abs=1e-3)
        moments = sphere_moments(n_dim)
        assert moments.fourth / moments.second == pytest.approx(3.0 / (n_dim + 2), rel=1e-13)


def test_integrate_line_truncation():
    value = integrate_line(lambda t: math.exp(-abs(t)), 40.0)
    assert value == pytest.approx(2.0, rel=1e-12)


def test_integrate_line_rejects_nonpositive_decay_rate():
    with pytest.raises(ValueError):
        integrate_line(lambda t: math.exp(-abs(t)), 0.0)
