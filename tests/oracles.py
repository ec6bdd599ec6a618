"""Reference implementations used only by the tests, as independent oracles
for identities the package evaluates in closed form."""

import math
from typing import Callable

import numpy as np
from scipy import integrate

from cknlab.cylinder import CylinderFunction, CylinderModel
from cknlab.extremals import bubble_half_width, profile, psi
from cknlab.params import CknParams
from cknlab.specfun import beta, integrate_line, jacobi_polynomial, log_cosh, sphere_area


def emden_fowler_image(params: CknParams, radial: Callable[[np.ndarray], np.ndarray], t):
    """Cylinder image e^(-(a_c-a) t) f(e^(-t)) of a radial function f(r)."""
    t = np.asarray(t, dtype=float)
    return np.exp(-params.ac_minus_a * t) * radial(np.exp(-t))


def beta_reduction(m: float, n: float) -> float:
    """B(m, n) through the downward recursion B(m,n) = (m-1)/(m-1+n) B(m-1,n).

    The recursion bottoms out in a direct Gamma evaluation once m <= 2.
    Requires m > 1 and n > 0.
    """
    if m <= 1.0:
        raise ValueError("beta_reduction requires m > 1")
    if n <= 0.0:
        raise ValueError("beta_reduction requires n > 0")
    factor = 1.0
    while m > 2.0:
        factor *= (m - 1.0) / (m - 1.0 + n)
        m -= 1.0
    return factor * beta(m, n)


def a0_quadrature(params: CknParams) -> float:
    """A0 = amplitude^(p+1) |S^(N-1)| 2^(2/(p-1)) times the line integral of
    the tail-weighted bubble power cosh(gamma t)^(-2p/(p-1)) e^(2 gamma t/(p-1)).

    The window is (40 + max(0, -ln r))/r for the decay rate r = 1.8 gamma.
    """
    p, g = params.p, params.gamma

    def integrand(t: float) -> float:
        return math.exp(2.0 * g * t / (p - 1.0) - 2.0 * p / (p - 1.0) * float(log_cosh(g * t)))

    rate = 1.8 * g
    line = integrate_line(integrand, (40.0 + max(0.0, -math.log(rate))) / rate)
    amp = profile(params).amplitude
    return amp ** (p + 1.0) * sphere_area(params.N) * 2.0 ** (2.0 / (p - 1.0)) * line


def jacobi_mode(params: CknParams, i: int, j: int, t):
    """The unnormalized (i, j) axis profile P_j^(k,k)(y) cosh(gamma t)^(-k),
    y = tanh(gamma t), k = sqrt(tau_i)/gamma, and its analytic t-derivative."""
    g = params.gamma
    k = math.sqrt(params.tau(i)) / g
    t = np.asarray(t, dtype=float)
    y = np.tanh(g * t)
    envelope = np.exp(-k * log_cosh(g * t))
    poly = jacobi_polynomial(j, k, y)
    # P_j'(y) = (j + 2k + 1)/2 * P_{j-1} with both parameters raised by 1
    poly_prime = 0.0 if j == 0 else (j + 2.0 * k + 1.0) / 2.0 * jacobi_polynomial(j - 1, k + 1.0, y)
    return poly * envelope, g * envelope * (poly_prime * (1.0 - y * y) - k * y * poly)


def jacobi_mode_h1_norm_sq(params: CknParams, i: int, j: int) -> float:
    """int phi'^2 + tau_i phi^2 dt of ``jacobi_mode``, by quadrature over the
    bubble window to a relative tolerance only."""
    tau = params.tau(i)

    def integrand(t: float) -> float:
        value, prime = jacobi_mode(params, i, j, t)
        return float(prime * prime + tau * value * value)

    half = bubble_half_width(params)
    value, _ = integrate.quad(integrand, -half, half, epsabs=0.0, epsrel=1e-13, limit=400)
    return value


def psi_second(params: CknParams, t):
    """Second derivative of Psi, in closed form."""
    d, g = params.ac_minus_a, params.gamma
    th = np.tanh(g * t)
    sech_sq = 1.0 - th * th
    return (d * d * th * th - d * g * sech_sq) * psi(params, t)


def neg_laplacian(model: CylinderModel, f: np.ndarray) -> np.ndarray:
    """D^T D f for each row of ``f``: the spectral kernel of the derivative
    part of the H1 form, applied apart from its tau term."""
    return np.fft.irfft(model.omega**2 * np.fft.rfft(f), n=model.grid.nodes)


def derivative_dot_h1_inner(model: CylinderModel, u: CylinderFunction, v: CylinderFunction) -> float:
    """The H1 inner product from explicit spectral axis derivatives, one shared
    degree d at a time: h sum_j (Du_j Dv_j + tau_d u_j v_j)."""

    def derivative(f):
        return np.fft.irfft(1j * model.omega * np.fft.rfft(f), n=model.grid.nodes)

    total = 0.0
    for d in sorted(set(u.degrees) & set(v.degrees)):
        f, g = u.mode(d), v.mode(d)
        total += model.h * float(np.dot(derivative(f), derivative(g)))
        total += model.params.tau(d) * model.h * float(np.dot(f, g))
    return total


def lp1_norm(model: CylinderModel, v: CylinderFunction) -> float:
    """|v|_{p+1} over the cylinder."""
    return model.lp1_pow(v) ** (1.0 / (model.params.p + 1.0))


def tensor_lp1_pow(model: CylinderModel, v: CylinderFunction) -> tuple[float, np.ndarray]:
    """int |v|^(p+1) and its per-degree sample gradient for a function with
    any degree, from the samples on the whole (t, angle) tensor grid at once."""
    p = model.params.p
    profiles = v.values.T
    harmonics = np.stack([model.harmonic_values(d) for d in v.degrees])
    values = profiles @ harmonics
    core = np.abs(values) ** (p - 1.0) * values
    per_degree = core @ (model.angle_w[:, None] * harmonics.T)
    weight = model.angle_prefactor * model.h
    value = weight * float(np.sum(profiles * per_degree))
    return value, weight * (p + 1.0) * per_degree.T
