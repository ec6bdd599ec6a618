"""Special functions shared by every other module.

Gamma and Beta evaluation, the sech-power line integral

    int_R cosh(s)^(-alpha) (cosh(s)^2 - 1)^beta ds = B(alpha/2 - beta, beta + 1/2),

Jacobi polynomials in Rodrigues form, surface areas and coordinate moments of
the unit sphere, and an adaptive quadrature helper for integrands that vanish
outside a given window of the real line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "beta",
    "cosh_power_integral",
    "integrate_line",
    "jacobi_polynomial",
    "log_cosh",
    "sphere_area",
    "sphere_moments",
    "SphereMoments",
]

_LN2 = math.log(2.0)

# integrate_line: quad tolerances and subinterval budget
QUAD_ABS_TOL = 1e-13
QUAD_REL_TOL = 1e-12
QUAD_LIMIT = 400


def beta(m: float, n: float) -> float:
    """Euler Beta function B(m, n) for m, n > 0, via log-Gamma."""
    if m <= 0.0 or n <= 0.0:
        raise ValueError("beta requires positive arguments")
    return math.exp(math.lgamma(m) + math.lgamma(n) - math.lgamma(m + n))


def cosh_power_integral(alpha: float, beta_exp: float) -> float:
    """Closed form of int_R cosh(s)^(-alpha) (cosh(s)^2 - 1)^beta_exp ds.

    Valid on the strip alpha/2 > beta_exp > -1/2, where it equals
    B(alpha/2 - beta_exp, beta_exp + 1/2).
    """
    if beta_exp <= -0.5:
        raise ValueError("cosh_power_integral requires beta_exp > -1/2")
    if alpha / 2.0 <= beta_exp:
        raise ValueError("cosh_power_integral requires alpha/2 > beta_exp")
    return beta(alpha / 2.0 - beta_exp, beta_exp + 0.5)


def _binom_real(x: float, k: int) -> float:
    # binomial coefficient with real upper argument, integer k >= 0
    out = 1.0
    for i in range(1, k + 1):
        out *= (x - k + i) / i
    return out


def jacobi_polynomial(j: int, exponent: float, y):
    """Degree-j Jacobi polynomial with equal parameters (exponent, exponent).

    Rodrigues normalization:

        P_j(y) = (-1)^j / (2^j j!) (1-y^2)^(-e) d^j/dy^j (1-y^2)^(j+e).

    Accepts a scalar or array ``y`` with |y| <= 1.
    """
    if j < 0:
        raise ValueError("polynomial degree must be nonnegative")
    if exponent <= 0.0:
        raise ValueError("exponent must be positive")
    import numpy as np

    arr = np.asarray(y, dtype=float)
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise ValueError("jacobi_polynomial expects |y| <= 1")
    half_minus = (arr - 1.0) / 2.0
    half_plus = (arr + 1.0) / 2.0
    acc = np.zeros_like(arr)
    for s in range(j + 1):
        c = _binom_real(j + exponent, j - s) * _binom_real(j + exponent, s)
        acc = acc + c * half_minus**s * half_plus ** (j - s)
    if np.isscalar(y) or arr.ndim == 0:
        return float(acc)
    return acc


@dataclass(frozen=True)
class SphereMoments:
    """Surface area and zonal coordinate moments of the unit sphere S^(N-1)."""

    area: float
    second: float
    fourth: float
    d_n: float


def sphere_area(n_dim: int) -> float:
    """Surface area of the unit sphere S^(N-1) in R^N."""
    if n_dim < 2:
        raise ValueError("sphere_area requires N >= 2")
    return 2.0 * math.pi ** (n_dim / 2.0) / math.gamma(n_dim / 2.0)


def sphere_moments(n_dim: int) -> SphereMoments:
    """Second and fourth moments of a coordinate over S^(N-1), and D_N.

    int theta_l^2 = |S^(N-1)|/N, int theta_l^4 = 3|S^(N-1)|/(N(N+2)), and
    D_N = (N+2)|S^(N-1)|/N.
    """
    area = sphere_area(n_dim)
    return SphereMoments(
        area=area,
        second=area / n_dim,
        fourth=3.0 * area / (n_dim * (n_dim + 2)),
        d_n=(n_dim + 2) * area / n_dim,
    )


def log_cosh(x):
    """log(cosh(x)), overflow-safe for large |x|."""
    import numpy as np

    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - _LN2


def integrate_line(f: Callable[[float], float], half_width: float) -> float:
    """Adaptive quadrature of ``f`` over [-half_width, half_width].

    The caller picks a window outside which ``f`` is negligible.  scipy's
    quadrature is imported here, so that the closed-form paths never load it.
    """
    if half_width <= 0.0:
        raise ValueError("half-width must be positive to choose a truncation")
    from scipy import integrate

    value, _ = integrate.quad(
        f, -half_width, half_width, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, limit=QUAD_LIMIT
    )
    return value
