"""Reference implementations used only by the tests, as independent oracles
for identities the package evaluates in closed form."""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from cknlab.cylinder import CylinderFunction, CylinderModel
from cknlab.extremals import profile, psi
from cknlab.params import CknParams
from cknlab.specfun import beta, integrate_line, jacobi_polynomial, log_cosh, sphere_area
from cknlab.spectrum import rho_02, rho_10_profile


def emden_fowler_image(params: CknParams, radial: Callable[[np.ndarray], np.ndarray], t):
    """Cylinder image e^(-(a_c-a) t) f(e^(-t)) of a radial function f(r)."""
    t = np.asarray(t, dtype=float)
    return np.exp(-params.ac_minus_a * t) * radial(np.exp(-t))


def bubble_half_width(params: CknParams) -> float:
    """Half-width of an axis window that holds the bubble: at least 30/(a_c-a),
    and beyond that where the envelope cosh(gamma t)^(-k), k = 2/(p-1), falls
    below e^-120, but at most at gamma t = 40.  As p -> 1 the envelope is a
    Gaussian about 2/((a_c-a) sqrt(p-1)) wide, wider than 40/(2(a_c-a))."""
    # 120/k = 60 (p-1); the cap only keeps exp finite, as arccosh(e^40) > 40
    envelope = math.acosh(math.exp(min(60.0 * (params.p - 1.0), 60.0)))
    return max(30.0 / params.ac_minus_a, min(40.0, envelope) / params.gamma)


def comparison_functions(params: CknParams) -> tuple[float, float]:
    """The pair (g, h) whose ratio orders the eigenvalue candidates.

    g depends only on (N, a), h only on the exponent; g/h > 1 iff
    lambda_{0,2} < lambda_{1,1}, and g/h > 2 iff lambda_{0,2} < lambda_{1,0}.
    The ratio passes through 1 on b_FS(a) and through 2 on b_FS*(a).
    """
    d = params.ac_minus_a
    g = math.sqrt(0.25 + (params.N - 1) / (4.0 * d * d)) - 0.5
    u = 1.0 + params.a - params.b
    h = u / (params.N - 2.0 * u)
    return g, h


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


def dense_pencil_eigenvalues(params: CknParams, i: int, count: int, t: np.ndarray) -> np.ndarray:
    """The ``count`` smallest eigenvalues of the mode-i second-difference pencil
    A x = lambda W x on the uniform nodes t, with Dirichlet walls one spacing
    beyond each end, ascending, as 1/mu for the largest eigenvalues mu of the
    dense S = W^{1/2} A^{-1} W^{1/2}.

    A and W are built here from the discretized equation
    -phi'' + tau_i phi = lambda beta sech^2(gamma t) phi, not taken from the
    package: a discretization independent of the oracle's sinc collocation,
    with its own O(h^2) error.
    """
    h = t[1] - t[0]
    a_mat = (
        np.diag(np.full(t.size, 2.0 / h**2 + params.tau(i)))
        - np.diag(np.full(t.size - 1, 1.0 / h**2), 1)
        - np.diag(np.full(t.size - 1, 1.0 / h**2), -1)
    )
    root = np.sqrt(params.beta) / np.cosh(params.gamma * t)
    s_mat = root[:, None] * np.linalg.solve(a_mat, np.diag(root))
    mu = np.linalg.eigvalsh(0.5 * (s_mat + s_mat.T))
    return 1.0 / mu[::-1][:count]


def sinc_pencil(params: CknParams, i: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mode-i sinc-collocation pencil (A, diagonal of W) on the uniform
    nodes t, from the entry formulas of the sinc second-derivative matrix,
    D2[j, k] = -2 (-1)^(j-k) / (h^2 (j-k)^2) and D2[j, j] = -pi^2 / (3 h^2),
    with A = -D2 + tau_i I and W = beta sech^2(gamma t)."""
    h = t[1] - t[0]
    offset = np.subtract.outer(np.arange(t.size), np.arange(t.size))
    with np.errstate(divide="ignore"):
        d2 = -2.0 * (-1.0) ** offset / offset**2
    np.fill_diagonal(d2, -math.pi**2 / 3.0)
    return -d2 / h**2 + params.tau(i) * np.eye(t.size), params.beta / np.cosh(params.gamma * t) ** 2


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


def rho10_function(model: CylinderModel) -> CylinderFunction:
    """The degree-one eigenfunction rho_10 on the model's grid."""
    # raw coordinate harmonic theta_N = sqrt(|S|/N) * (orthonormal Y_1)
    coeff = math.sqrt(model.area / model.params.N)
    return model.function({1: coeff * rho_10_profile(model.params, model.t)})


def numerator_gradient(model: CylinderModel, v: CylinderFunction) -> np.ndarray:
    """Gradient of the quotient numerator |v|_H1^2 - C^-1 (int |v|^(p+1))^(2/(p+1))
    with respect to the samples, row k for ``v.degrees[k]``."""
    p = model.params.p
    lp1_pow, lp1_grads = model.lp1_pow(v, with_gradient=True)
    factor = model.c_inv * 2.0 / (p + 1.0) * lp1_pow ** (2.0 / (p + 1.0) - 1.0)
    return model.h1_gradient(v) - factor * lp1_grads


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


def _unit_envelope(params: CknParams, t):
    """cosh(gamma t)^(-2/(p-1)), the bubble Psi over its amplitude."""
    return np.exp(-(2.0 / (params.p - 1.0)) * log_cosh(params.gamma * t))


def rho_02_prime(params: CknParams, t):
    """Analytic t-derivative of ``spectrum.rho_02``."""
    p, g = params.p, params.gamma
    t = np.asarray(t, dtype=float)
    th = np.tanh(g * t)
    sech_sq = 1.0 - th * th
    envelope = _unit_envelope(params, t)
    bracket = 4.0 * (p + 1.0) - (6.0 * p + 2.0) * sech_sq
    d_envelope = -(2.0 * g / (p - 1.0)) * th * envelope
    d_bracket = (6.0 * p + 2.0) * 2.0 * g * th * sech_sq
    return p / (4.0 * (p - 1.0) ** 2) * (d_envelope * bracket + envelope * d_bracket)


# largest normalized H1 product that orthogonality_check accepts
ORTHOGONALITY_TOL = 1e-8


@dataclass(frozen=True)
class OrthogonalityReport:
    """H1 inner products of the gap eigenfunctions against the soft modes.

    Values are normalized by the product of the factors' H1 norms; mode-one
    products against mode-zero functions vanish identically by harmonic
    orthogonality and are reported as exact zeros.
    """

    rho02_vs_psi: float
    rho02_vs_psi_prime: float
    rho10_vs_mode_zero: float
    tolerance: float
    passed: bool


def orthogonality_check(params: CknParams) -> OrthogonalityReport:
    """rho_02 against Psi and Psi' in H1, by adaptive quadrature."""
    tau0 = params.tau(0)
    half = bubble_half_width(params)
    d, gamma = params.ac_minus_a, params.gamma
    # the ratios are scale-free, so the bubble terms are Psi, Psi', Psi'' over
    # the amplitude: unit-scale integrands that quad's absolute tolerance cannot
    # swamp, and finite where the amplitude itself underflows
    rho = (lambda t: rho_02(params, t), lambda t: rho_02_prime(params, t))
    factors = (lambda th: 1.0, lambda th: -d * th,
               lambda th: d * d * th * th - d * gamma * (1.0 - th * th))
    bubble = [lambda t, f=f: f(np.tanh(gamma * t)) * _unit_envelope(params, t) for f in factors]

    def ip(u, v) -> float:
        (f, fp), (g, gp) = u, v
        return integrate_line(lambda t: fp(t) * gp(t) + tau0 * f(t) * g(t), half)

    n_rho = math.sqrt(ip(rho, rho))
    r1, r2 = (abs(ip(rho, u)) / (n_rho * math.sqrt(ip(u, u))) for u in (bubble[:2], bubble[1:]))
    return OrthogonalityReport(
        rho02_vs_psi=r1,
        rho02_vs_psi_prime=r2,
        rho10_vs_mode_zero=0.0,
        tolerance=ORTHOGONALITY_TOL,
        passed=bool(r1 < ORTHOGONALITY_TOL and r2 < ORTHOGONALITY_TOL),
    )
